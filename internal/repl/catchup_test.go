package repl

import (
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/relation"
	"repro/internal/systems/ipcap"
	"repro/internal/wal"
)

// BenchmarkFollowerCatchUp times a severed follower catching up. Each
// iteration cuts the link to an in-process follower (InProcDialer), commits
// catchUpRecords flows records in the dark — seven inserts of a new flow to
// two counter updates and one remove, as BenchmarkOpenReplay's log holds —
// and restores the link. Only the catch-up is timed: the publisher's session
// streaming the retained records, and the follower decoding and applying
// them in batches until Applied reaches Head. It reports records/s; with
// -benchmem, B/op and allocs/op are the catch-up's, both ends of the pipe.
func BenchmarkFollowerCatchUp(b *testing.B) {
	const catchUpRecords = 1000
	spec, dcmp := ipcap.FlowSpec(), ipcap.DefaultFlowDecomp()
	d, err := durable.Open(b.TempDir(), spec, dcmp, durable.Options{Create: true, Policy: wal.SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	p, err := NewPublisher(d, PublisherOptions{Retain: 2 * catchUpRecords})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	cd := &cutDialer{inner: InProcDialer(p)}
	// A severed follower redials at once and waits in the dial for restore,
	// so no backoff falls inside the timed catch-up.
	f, err := NewFollower(spec, cd.dial, FollowerOptions{Decomp: dcmp, Backoff: time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	defer cd.restore() // a follower waiting to dial could not be closed
	if err := f.WaitFor(1, waitTimeout); err != nil {
		b.Fatal(err)
	}

	key := func(i int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("local", i%200), relation.BindInt("foreign", i))
	}
	stats := func(n int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("packets", n), relation.BindInt("bytes", 64*n))
	}
	next, i := int64(0), int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		cd.sever()
		// An update or remove of a flow already removed logs nothing, so
		// count the records.
		for logged := 0; logged < catchUpRecords; i++ {
			n := 1
			switch {
			case i%10 < 7 || next < 10:
				err = d.Insert(key(next).Merge(stats(1)))
				next++
			case i%10 < 9:
				n, err = d.Update(key(next-1-i%next), stats(i))
			default:
				n, err = d.Remove(key(next - 1 - (i*7)%next))
			}
			if err != nil {
				b.Fatal(err)
			}
			logged += n
		}
		head := p.Head()
		b.StartTimer()
		cd.restore()
		if err := f.WaitFor(head, waitTimeout); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(catchUpRecords*b.N)/b.Elapsed().Seconds(), "records/s")
	if f.Len() != d.Len() {
		b.Fatalf("the follower holds %d flows, the primary %d", f.Len(), d.Len())
	}
}
