package monitor

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// ReadRecordsCSV parses a raw per-instance records CSV (the format written
// by WriteRecordsCSV) into a Monitor ready for Analyze. The offline path
// of the dipmon tool uses this to analyze a finished run.
func ReadRecordsCSV(r io.Reader, timeScale float64) (*Monitor, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("monitor: read records csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("monitor: empty records csv")
	}
	m := New(timeScale)
	for i, row := range rows[1:] {
		if len(row) != 9 {
			return nil, fmt.Errorf("monitor: row %d has %d fields, want 9", i+2, len(row))
		}
		period, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("monitor: row %d period: %w", i+2, err)
		}
		ints := make([]int64, 5)
		for j, idx := range []int{2, 3, 4, 5, 6} {
			v, err := strconv.ParseInt(row[idx], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("monitor: row %d field %d: %w", i+2, idx, err)
			}
			ints[j] = v
		}
		conc, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			return nil, fmt.Errorf("monitor: row %d concurrency: %w", i+2, err)
		}
		rec := &Record{
			Process: row[0],
			Period:  period,
			Start:   time.Unix(0, ints[0]),
			End:     time.Unix(0, ints[1]),
			Cc:      time.Duration(ints[2]),
			Cm:      time.Duration(ints[3]),
			Cp:      time.Duration(ints[4]),
			AvgConc: conc,
		}
		if row[8] == "1" {
			rec.Err = fmt.Errorf("instance failed (from csv)")
		}
		m.addRecord(rec)
	}
	return m, nil
}
