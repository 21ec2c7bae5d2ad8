package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/schema"
)

// TestP10DivertedMessagesPinned pins what P10's validation diverts to
// CDB.FailedMessages in a pipeline run at d=0.05 over 3 periods: the
// count, the reason of the lowest order number, and a digest over every
// (order number, reason, payload) in key order. A change to how San Diego
// messages are generated, validated or stored must leave all three as
// they are.
func TestP10DivertedMessagesPinned(t *testing.T) {
	want := map[uint64]struct {
		count  int
		first  string
		digest string
	}{
		42: {5, `xmlmsg: validation at /SDOrder/Sum: "12,50" is not a valid xs:decimal`,
			"786dd595cb28415d395f728d53183dba08000f7a19fba3c0634ee4b8bc6ff8de"},
		7: {2, `xmlmsg: validation at /SDOrder/Sum: "12,50" is not a valid xs:decimal`,
			"dad062566758d7afe562a5f80a5640d760f8ad3f545e6d28eb304fe47d6eb840"},
	}
	for _, seed := range []uint64{42, 7} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			b, err := New(Config{Datasize: 0.05, Periods: 3, Seed: seed,
				Engine: EnginePipeline, FastClock: true})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if _, err := b.Run(); err != nil {
				t.Fatal(err)
			}
			fm := b.Scenario().DB(schema.SysCDB).MustTable("FailedMessages").Scan()
			type failed struct {
				id              int64
				reason, payload string
			}
			var rows []failed
			for i := 0; i < fm.Len(); i++ {
				if fm.Get(i, "Source").Str() != schema.SysSanDiego {
					continue
				}
				rows = append(rows, failed{fm.Get(i, "FailID").Int(),
					fm.Get(i, "Reason").Str(), fm.Get(i, "Payload").Str()})
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
			if len(rows) == 0 {
				t.Fatal("no diverted San Diego message")
			}
			h := sha256.New()
			for _, r := range rows {
				fmt.Fprintf(h, "%d\x00%s\x00%s\n", r.id, r.reason, r.payload)
			}
			got := hex.EncodeToString(h.Sum(nil))
			w := want[seed]
			if len(rows) != w.count || rows[0].reason != w.first || got != w.digest {
				t.Errorf("diverted %d, first reason %q, digest %s; want %d, %q, %s",
					len(rows), rows[0].reason, got, w.count, w.first, w.digest)
			}
		})
	}
}
