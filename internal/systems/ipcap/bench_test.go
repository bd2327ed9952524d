package ipcap_test

import (
	"testing"

	"repro/internal/systems/ipcap"
)

// BenchmarkShardedFlowAccount times one ShardedFlowTable.Account — an
// Upsert on an unlogged sharded relation: the routed read, then the keyed
// update on the same fork and its publish — over 1024 live flows, so every
// iteration after the warm-up updates an existing flow. Run it with
// -benchmem: allocs/op is the whole read-modify-write's.
func BenchmarkShardedFlowAccount(b *testing.B) {
	tab, err := ipcap.NewShardedFlowTable(ipcap.DefaultFlowDecomp(), 16)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]ipcap.FlowKey, 1024)
	for i := range keys {
		keys[i] = ipcap.FlowKey{Local: uint32(i % 32), Foreign: uint32(i)}
		if err := tab.Account(keys[i], 64); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.Account(keys[i%len(keys)], 64); err != nil {
			b.Fatal(err)
		}
	}
}
