// Durable flow accounting with a kill in the middle: the §6.2-style flow
// table opened through the durable tier, so every acknowledged mutation is
// write-ahead logged before it is published.
//
// The demo runs one lifetime of a crashing process, all in one binary:
//
//  1. open a durable relation in a scratch directory and account a burst
//     of flow records, checkpointing part-way through;
//  2. "kill" the process — abandon the handle without Close and smear a
//     half-written record onto the log tail, which is exactly what a
//     power cut mid-append leaves behind;
//  3. reopen the directory: recovery loads the checkpoint, replays the
//     log tail through the copy-on-write publish path, discards the torn
//     record, and hands back a relation that agrees with every
//     acknowledged write.
//
// Run with:
//
//	go run ./examples/durableflows
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/durable"
	"repro/internal/fd"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wal"
)

// flowSpec declares the flow table: (local, foreign) identifies a flow
// and determines its byte counter.
func flowSpec() *core.Spec {
	return &core.Spec{
		Name: "flows",
		Columns: []core.ColDef{
			{Name: "local", Type: core.IntCol},
			{Name: "foreign", Type: core.IntCol},
			{Name: "bytes", Type: core.IntCol},
		},
		FDs: fd.NewSet(fd.FD{
			From: relation.NewCols("local", "foreign"),
			To:   relation.NewCols("bytes"),
		}),
	}
}

// flowDecomp lays flows out as nested hash tables on the key path.
func flowDecomp() *decomp.Decomp {
	return decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"local", "foreign"}, []string{"bytes"},
			decomp.U("bytes")),
		decomp.Let("y", []string{"local"}, []string{"foreign", "bytes"},
			decomp.M(dstruct.HTableKind, "w", "foreign")),
		decomp.Let("x", nil, []string{"local", "foreign", "bytes"},
			decomp.M(dstruct.HTableKind, "y", "local")),
	}, "x")
}

func tup(local, foreign, bytes int64) relation.Tuple {
	return relation.NewTuple(
		relation.BindInt("local", local),
		relation.BindInt("foreign", foreign),
		relation.BindInt("bytes", bytes),
	)
}

func main() {
	dir, err := os.MkdirTemp("", "durableflows-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	met := &obs.Metrics{}
	open := func(create bool) *core.DurableRelation {
		d, oerr := durable.Open(dir, flowSpec(), flowDecomp(), durable.Options{
			Create:  create,
			Policy:  wal.SyncAlways,
			Metrics: met,
		})
		if oerr != nil {
			log.Fatal(oerr)
		}
		return d
	}

	// Lifetime 1: account flows, checkpoint part-way, keep accounting.
	d := open(true)
	const flows = 500
	for i := int64(0); i < flows; i++ {
		if ierr := d.Insert(tup(i%16, i, (i+1)*100)); ierr != nil {
			log.Fatal(ierr)
		}
		if i == flows/2 {
			if cerr := d.Checkpoint(); cerr != nil {
				log.Fatal(cerr)
			}
		}
	}
	// A routed update and a pattern remove ride the same log.
	if _, uerr := d.Update(
		relation.NewTuple(relation.BindInt("local", 3), relation.BindInt("foreign", 3)),
		relation.NewTuple(relation.BindInt("bytes", 999_999)),
	); uerr != nil {
		log.Fatal(uerr)
	}
	if _, rerr := d.Remove(relation.NewTuple(relation.BindInt("local", 15))); rerr != nil {
		log.Fatal(rerr)
	}
	acked := d.Len()
	fmt.Printf("lifetime 1: %d flows acknowledged (checkpoint at %d, then %d more commits)\n",
		acked, flows/2, flows/2+1)

	// The kill. No Close, no Sync — the handle is simply dropped, and a
	// torn half-record is smeared onto the log tail the way an append cut
	// off mid-write would leave it. Under SyncAlways every acknowledged
	// commit is already on disk, so nothing acknowledged may be lost.
	logPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x00, 0x13}); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kill: handle abandoned, %d torn bytes on the log tail\n\n", 3)

	// Lifetime 2: recovery.
	d2 := open(false)
	defer func() {
		if cerr := d2.Close(); cerr != nil {
			log.Fatal(cerr)
		}
	}()
	recovered := d2.Len()
	fmt.Printf("lifetime 2: recovered %d flows (want %d)\n", recovered, acked)
	if recovered != acked {
		log.Fatalf("recovery disagrees with the acknowledged state: %d != %d", recovered, acked)
	}
	if err := d2.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	ts, err := d2.Query(relation.NewTuple(
		relation.BindInt("local", 3), relation.BindInt("foreign", 3)), nil)
	if err != nil {
		log.Fatal(err)
	}
	if len(ts) != 1 {
		log.Fatalf("updated flow lost: %v", ts)
	}
	fmt.Printf("updated flow survived the crash: %v\n", ts[0])

	ex, err := d2.ExplainQuery([]string{"local", "foreign"}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("explain: %s\n\n", ex)

	snap := met.Snapshot()
	fmt.Printf("wal.appends=%d wal.fsyncs=%d wal.bytes=%d\n",
		snap.WalAppends, snap.WalFsyncs, snap.WalBytes)
	fmt.Printf("ckpt.writes=%d ckpt.bytes=%d\n", snap.CkptWrites, snap.CkptBytes)
	fmt.Printf("recovery.replays=%d recovery.discards=%d (the torn tail)\n",
		snap.RecoveryReplays, snap.RecoveryDiscards)
}
