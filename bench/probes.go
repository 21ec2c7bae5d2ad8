package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/datagen"
	"repro/internal/dbproto"
	"repro/internal/monitor"
	"repro/internal/mtm"
	"repro/internal/processes"
	rel "repro/internal/relational"
	"repro/internal/scenario"
	"repro/internal/schedule"
	"repro/internal/schema"
	"repro/internal/stx"
	x "repro/internal/xmlmsg"
)

// probePeriod is the benchmark period whose inputs the direct probes
// replay: the first steady one.
const probePeriod = 1

// timed runs fn reps times and returns the median duration, recording
// one span per call. prep, when non-nil, runs untimed before each call.
func timed(rec *spanRecorder, name string, reps int, prep, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, fmt.Errorf("probe %s: %w", name, err)
			}
		}
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		rec.add("probe."+name, t0, t1, 0)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		ds = append(ds, float64(t1.Sub(t0)))
	}
	return time.Duration(median(ds)), nil
}

// directProbes times each layer on its own with the workload's period-1
// inputs: the calls driver.prepare makes (datagen, schedule), the period
// initialisation (scenario load), the message path (xmlmsg, stx), the
// wire (dbproto, ws) and the monitor's bookkeeping. They run after the
// measured units, so they cost the end-to-end numbers nothing.
func directProbes(w workload, seed uint64, rec *spanRecorder) (metricSet, error) {
	m := metricSet{}
	sf := w.scale()

	// datagen + schedule: what driver.prepare does for one period.
	var (
		gen  *datagen.Generator
		data *scenario.SourceData
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const genReps = 3
	d, err := timed(rec, "datagen.GenerateSourceData", genReps, nil, func() error {
		var err error
		gen, err = datagen.New(datagen.Config{Seed: seed, Datasize: w.Datasize, Dist: sf.Dist, Period: probePeriod})
		if err != nil {
			return err
		}
		data, err = scenario.GenerateSourceData(gen)
		return err
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	m["datagen.gen_ms_per_period"] = ms(d)
	m["datagen.alloc_mb_per_period"] = mb(float64(after.TotalAlloc-before.TotalAlloc)) / genReps
	m["datagen.rows_per_period"] = float64(sourceRows(data))
	d, err = timed(rec, "schedule.PeriodPlan", 20, nil, func() error {
		_, err := schedule.PeriodPlan(probePeriod, sf)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["schedule.plan_us_per_period"] = us(d)

	// A fresh topology on the workload's transport.
	scn, err := scenario.New(scenario.Options{RemoteDB: w.Remote})
	if err != nil {
		return nil, fmt.Errorf("probe scenario: %w", err)
	}
	defer func() {
		// The topology's HTTP clients share http.DefaultTransport; a
		// connection it dialled but never used keeps the listeners'
		// shutdown waiting for five seconds (README.md, "Findings"). This
		// topology is the harness's own, so it may drop them first.
		http.DefaultClient.CloseIdleConnections()
		_ = scn.Close()
	}()
	if err := scn.Uninitialize(); err != nil {
		return nil, fmt.Errorf("probe scenario: %w", err)
	}
	// One web-service round trip with an empty result set: the per-call
	// overhead of the ws layer.
	beijing := scn.WSClient(schema.SysBeijing)
	d, err = timed(rec, "ws.Query", 20, nil, func() error {
		_, err := beijing.Query("Products")
		return err
	})
	if err != nil {
		return nil, err
	}
	m["ws.call_us"] = us(d)

	d, err = timed(rec, "scenario.LoadSources", 3, scn.Uninitialize, func() error {
		return scn.LoadSources(data)
	})
	if err != nil {
		return nil, err
	}
	m["scenario.load_ms_per_period"] = ms(d)
	m["scenario.source_rows"] = float64(scn.TotalSourceRows())

	// dbproto: full scan and bulk insert of the period's Chicago Orders
	// over a real loopback HTTP endpoint.
	remote, err := dbproto.Serve(scn.ES)
	if err != nil {
		return nil, fmt.Errorf("probe dbproto.Serve: %w", err)
	}
	defer remote.Close()
	orders := data.TPCH[schema.SysChicago].Orders
	cli := dbproto.NewClient(remote.BaseURL(), schema.SysChicago)
	d, err = timed(rec, "dbproto.Query", 20, nil, func() error {
		r, err := cli.Query("Orders", nil)
		if err == nil && r.Len() != orders.Len() {
			err = fmt.Errorf("scan returned %d rows, want %d", r.Len(), orders.Len())
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	m["dbproto.query_ms"] = ms(d)
	m["dbproto.rows_per_s"] = ratio(float64(orders.Len()), d.Seconds())
	table := scn.DB(schema.SysChicago).MustTable("Orders")
	truncate := func() error { table.Truncate(); return nil }
	d, err = timed(rec, "dbproto.Insert", 20, truncate, func() error {
		return cli.Insert("Orders", orders)
	})
	if err != nil {
		return nil, err
	}
	m["dbproto.insert_rows_per_s"] = ratio(float64(orders.Len()), d.Seconds())

	// xmlmsg: parse the period's E1 messages; round-trip the period's
	// Beijing Orders through the generic result-set document.
	msgs := e1Messages(gen, sf.Datasize)
	docs := make([]string, len(msgs))
	bytes := 0
	for i, msg := range msgs {
		docs[i] = msg.doc.String()
		bytes += len(docs[i])
	}
	// Small periods parse in microseconds; repeat to a fixed volume so the
	// timer resolution does not show.
	reps := 1 + (8<<20)/bytes
	dec := x.NewDecoder()
	d, err = timed(rec, "xmlmsg.ParseString", 3, nil, func() error {
		for r := 0; r < reps; r++ {
			for _, doc := range docs {
				if _, err := dec.ParseString(doc); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["xmlmsg.parse_mb_per_s"] = ratio(mb(float64(bytes*reps)), d.Seconds())
	asia := data.Asia[schema.SysBeijing].Orders
	var buf []byte
	d, err = timed(rec, "xmlmsg.ResultSetRoundTrip", 5, nil, func() error {
		buf = x.FromRelation("Orders", asia).AppendXML(buf[:0])
		doc, err := dec.ParseString(string(buf))
		if err != nil {
			return err
		}
		back, err := x.ToRelation(doc)
		if err == nil && back.Len() != asia.Len() {
			err = fmt.Errorf("round trip returned %d rows, want %d", back.Len(), asia.Len())
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	m["xmlmsg.resultset_roundtrip_ms"] = ms(d)

	// stx: the stylesheet each translated E1 message goes through.
	translated := 0
	for _, msg := range msgs {
		if msg.sheet != nil {
			translated++
		}
	}
	sreps := 1 + 20000/translated
	d, err = timed(rec, "stx.Transform", 3, nil, func() error {
		for r := 0; r < sreps; r++ {
			for _, msg := range msgs {
				if msg.sheet == nil {
					continue
				}
				if _, err := msg.sheet.Transform(msg.doc); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["stx.transform_us_per_msg"] = us(d) / float64(translated*sreps)

	// monitor: the bookkeeping every process instance pays.
	const instances = 50000
	d, err = timed(rec, "monitor.StartRecordFinish", 3, nil, func() error {
		mon := monitor.New(1)
		for i := 0; i < instances; i++ {
			r := mon.StartInstance("P01", 0)
			r.Record(mtm.CostProc, time.Microsecond)
			r.Finish(nil)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["monitor.record_ns_per_instance"] = float64(d) / instances
	return m, nil
}

type e1Message struct {
	doc   *x.Node
	sheet *stx.Stylesheet // nil when the process does not translate
}

// e1Messages generates the messages the driver dispatches in the probe
// period, as driver.messageFor does.
func e1Messages(gen *datagen.Generator, d float64) []e1Message {
	var out []e1Message
	for i := 0; i < schedule.CountP01(probePeriod, d); i++ {
		out = append(out, e1Message{gen.BeijingCustomerMsg(i), processes.SheetBeijingToSeoul})
	}
	for i := 0; i < schedule.CountP02(probePeriod, d); i++ {
		out = append(out, e1Message{gen.MDMCustomer(i), processes.SheetMDMToEurope})
	}
	for i := 0; i < schedule.CountP04(d); i++ {
		out = append(out, e1Message{gen.ViennaOrder(i), nil})
	}
	for i := 0; i < schedule.CountP08(d); i++ {
		out = append(out, e1Message{gen.HongkongOrder(i), processes.SheetHongkongToCDB})
	}
	for i := 0; i < schedule.CountP10(d); i++ {
		if doc, broken := gen.SanDiegoOrder(i); doc != nil && !broken {
			out = append(out, e1Message{doc, processes.SheetSanDiegoToCDB})
		}
	}
	return out
}

func sourceRows(data *scenario.SourceData) int {
	n := 0
	count := func(rs ...*rel.Relation) {
		for _, r := range rs {
			n += r.Len()
		}
	}
	for _, ds := range data.Europe {
		count(ds.City, ds.Company, ds.Customer, ds.Orders, ds.Orderline, ds.Product, ds.ProductGroup)
	}
	for _, ds := range data.TPCH {
		count(ds.Customer, ds.Orders, ds.Lineitem, ds.Part)
	}
	for _, ds := range data.Asia {
		count(ds.Customers, ds.Products, ds.Orders, ds.OrderItems)
	}
	return n
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
