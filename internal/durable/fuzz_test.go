package durable_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/wal"
)

// FuzzRecovery drives a durable relation through a fuzzer-chosen sequence
// of mutations and checkpoints, then simulates a crash by truncating or
// flipping bytes at a fuzzer-chosen position in the log, and reopens.
// The recovery contract under arbitrary damage:
//
//   - durable.Open either succeeds or fails loudly — it never panics; and
//   - when it succeeds, the recovered α is exactly one of the states the
//     relation actually acknowledged during the run — never a torn
//     hybrid, never a state containing a tuple that was never committed.
//
// Damage confined to the log's unsynced tail reads as a torn write and
// is discarded; damage anywhere else must be reported as corruption.
//
// Run the full fuzzer with `make fuzz` (or `go test ./internal/durable
// -fuzz=FuzzRecovery`); the committed corpus under testdata/fuzz replays
// as ordinary subtests of `go test`.
func FuzzRecovery(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 5, 0, 9, 3, 0, 0, 17, 1, 4, 250, 3})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 128, 64})
	f.Add([]byte{2, 9, 3, 1, 44, 0, 7, 2, 61, 3, 2, 255, 255, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		spec := schedSpec()
		d, err := durable.Open(dir, spec, paperex.SchedulerDecomp(), durable.Options{
			Create: true,
			Policy: wal.SyncAlways,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}

		// Every state the relation passes through is acknowledged the
		// moment the mutation returns; all of them are legitimate
		// recovery targets for some crash point.
		acked := map[string]bool{}
		record := func() {
			ts, aerr := d.All()
			if aerr != nil {
				t.Fatalf("α: %v", aerr)
			}
			acked[fuzzCanon(ts)] = true
		}
		record()

		// The last two bytes choose the damage; the rest drive ops in
		// 5-byte frames. Mutations may fail FD checks — that is the
		// engine refusing the op, and the state simply stays put.
		ops := data
		if len(ops) > 2 {
			ops = ops[:len(ops)-2]
		}
		bi := relation.BindInt
		for i := 0; i+4 < len(ops); i += 5 {
			op, a, b, c, v := ops[i]%4, int64(ops[i+1]%3), int64(ops[i+2]%3), int64(ops[i+3]%2), int64(ops[i+4]%4)
			switch op {
			case 0:
				_ = d.Insert(paperex.SchedulerTuple(a, b, c, v))
			case 1:
				_, _ = d.Remove(relation.NewTuple(bi("ns", a), bi("pid", b)))
			case 2:
				_, _ = d.Update(relation.NewTuple(bi("ns", a), bi("pid", b)), relation.NewTuple(bi("cpu", v)))
			case 3:
				if cerr := d.Checkpoint(); cerr != nil {
					t.Fatalf("checkpoint: %v", cerr)
				}
			}
			record()
		}

		// Crash: abandon the handle (Close only releases descriptors;
		// under SyncAlways every acknowledged record is already on disk)
		// and damage the log file.
		d.Close()
		logPath := filepath.Join(dir, "wal.log")
		raw, rerr := os.ReadFile(logPath)
		if rerr != nil {
			t.Fatalf("read log: %v", rerr)
		}
		if len(data) >= 2 && len(raw) > 0 {
			mode, at := data[len(data)-2], int(data[len(data)-1])
			if mode%2 == 0 {
				// Torn write: drop a suffix of the log.
				raw = raw[:len(raw)-at%(len(raw)+1)]
			} else {
				// Bit rot: flip one byte.
				raw[at%len(raw)] ^= 0xff
			}
			if werr := os.WriteFile(logPath, raw, 0o644); werr != nil {
				t.Fatalf("damage log: %v", werr)
			}
		}

		d2, oerr := durable.Open(dir, spec, paperex.SchedulerDecomp(), durable.Options{
			Policy: wal.SyncAlways,
		})
		if oerr != nil {
			// Loud refusal is a correct answer to damage — mid-log
			// corruption, a log truncated below its header next to a
			// checkpoint, a chewed-up manifest. Silent wrong state is
			// the only failure.
			return
		}
		defer d2.Close()
		ts, aerr := d2.All()
		if aerr != nil {
			t.Fatalf("recovered α: %v", aerr)
		}
		if got := fuzzCanon(ts); !acked[got] {
			t.Fatalf("recovered a state that was never acknowledged:\n%s", got)
		}
		if ierr := d2.CheckInvariants(); ierr != nil {
			t.Fatalf("recovered instance ill-formed: %v", ierr)
		}
	})
}

// fuzzCanon renders a deterministic fingerprint of an α (All is sorted).
func fuzzCanon(ts []relation.Tuple) string {
	s := ""
	for _, t := range ts {
		s += fmt.Sprintf("%v\n", t)
	}
	return s
}
