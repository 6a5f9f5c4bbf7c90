package main

import "fmt"

// workload is one traffic mix against one server configuration. The
// server flags and the engine leg's hand-built stack describe the same
// construction; the same-program check in the traced run holds them to
// that.
type workload struct {
	name string
	why  string
	// serverFlags configure cmd/oram-server (the harness adds -addr,
	// -blocks, -blocksize and, for file storage, -dir).
	serverFlags []string
	fileStorage bool
	// batch is the NDJSON batch length; 0 sends single-op requests.
	batch    int
	readFrac float64
	// zipf is the Zipf exponent of the address distribution (0 = uniform).
	zipf float64
	// timed marks the modeled-DDR3 backend, whose stats carry cycles.
	timed bool
	// build assembles the engine leg's traced and reference stacks.
	build func(cfg engineConfig) (*engineSet, error)
	// manual keeps the workload out of BENCHMARK.json: it runs by name
	// and in the self-tests, but not in the repeated benchmark runs.
	manual bool
	// lossy marks a workload on which the server is known to lose ops.
	// Its runs count the lost ops in err_ratio and fail; the self-tests
	// expect that until the server is fixed.
	lossy bool
}

var workloads = []*workload{
	{
		name: "wal-single",
		why: "Durable per-request serving: HTTP/JSON, one encrypted and authenticated path read and write-back and a WAL frame per op, " +
			"plus a checkpoint every 64 frames that sets p99.",
		serverFlags: []string{"-storage", "file", "-wal", "-wal-depth", "64", "-integrity"},
		fileStorage: true,
		readFrac:    0.5,
		build:       buildFlat,
		// Each 64-frame checkpoint msyncs about 2 MB of scattered tree
		// pages, so a run (three prefills of 1 024 checkpoints, then the
		// measured phase) writes about 7 GB. A shared virtual disk
		// throttles that after a few runs, halving throughput and
		// raising CPU time per op by a third, so its figures do not
		// repeat across many back-to-back runs.
		manual: true,
	},
	{
		name: "mem-batch-ct",
		why: "Hardened throughput serving: 64-op NDJSON batches over 2 shards with constant-time stash scans and counter encryption " +
			"on the memory arena; no file storage, WAL, hierarchy or membus.",
		serverFlags: []string{"-shards", "2", "-ct-stash"},
		batch:       64,
		readFrac:    0.9,
		build:       buildFlat,
		// The batch handler streams results while it still reads the
		// NDJSON body, and net/http discards the unread rest of a
		// request body once the response first flushes (past 2 KB). A
		// 64-op batch with 90% reads loses about 30% of its ops that
		// way, so the workload waits for a server that reads batch
		// bodies in full duplex.
		manual: true,
		lossy:  true,
	},
	{
		name: "mem-single-ct",
		why: "Hardened per-request serving: single-op HTTP/JSON over 2 shards with constant-time stash scans and counter encryption " +
			"on the memory arena; no file storage, WAL, hierarchy or membus.",
		serverFlags: []string{"-shards", "2", "-ct-stash"},
		readFrac:    0.9,
		build:       buildFlat,
	},
	{
		name: "dram-recursive",
		why: "The paper's secure-processor point: a recursive position map with a 4 KB PLB on modeled FR-FCFS DDR3, Zipf(1.1) " +
			"addresses, plaintext so the cipher is bypassed.",
		serverFlags: []string{"-backend", "dram", "-mem-sched", "frfcfs", "-posmap", "recursive",
			"-onchip-max", "4096", "-plb-bytes", "4096", "-encrypt", "none"},
		readFrac: 0.9,
		zipf:     1.1,
		timed:    true,
		build:    buildRecursive,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
