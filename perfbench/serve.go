package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// options are the knobs of one run.
type options struct {
	server  string // oram-server binary
	work    string // scratch root inside the checkout
	seed    int64
	seconds float64
	blocks  uint64
	setups  int           // set-ups per run; setup_s is their median
	warmup  time.Duration // closed-loop traffic before measuring
}

// newConns builds the connections' generators from the seed, so every
// set-up and every leg replays the same op streams.
func newConns(o options, w *workload, base string) []*httpConn {
	cs := make([]*httpConn, conns)
	for i := range cs {
		cs[i] = newHTTPConn(newConnGen(i, o.seed, o.blocks, w), w, base)
	}
	return cs
}

func closeConns(cs []*httpConn) {
	for _, c := range cs {
		c.close()
	}
}

// setupServer starts a server over a fresh directory, creates the
// tenant and prefills every block. It returns the server, its
// connections, and the set-up's wall time and the server's CPU time.
func setupServer(o options, w *workload, dir string) (*server, []*httpConn, float64, float64, error) {
	t0 := time.Now()
	srv, err := startServer(o.server, filepath.Join(dir, "data"), w, o.blocks)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if err := createTenant(srv.addr); err != nil {
		srv.kill()
		return nil, nil, 0, 0, err
	}
	cs := newConns(o, w, tenantURL(srv.addr))
	if err := prefillConns(cs); err != nil {
		closeConns(cs)
		srv.kill()
		return nil, nil, 0, 0, err
	}
	wall := time.Since(t0).Seconds()
	cpu, err := srv.cpuSeconds()
	if err != nil {
		closeConns(cs)
		srv.kill()
		return nil, nil, 0, 0, err
	}
	return srv, cs, wall, cpu, nil
}

// runServed is the untraced run: the end-to-end metrics of one workload
// against a real oram-server process over loopback.
//
// The gated metrics are the server's CPU time per op and per set-up,
// its memory and its on-chip provision. Throughput and latency are
// printed but not gated: the host of a shared virtual machine steals
// CPU time from it, which moves closed-loop wall-clock figures by up to
// half between runs, while process CPU time does not count stolen time.
func runServed(o options, w *workload) (*result, error) {
	dir, err := runDir(o.work)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &result{}
	var setupWall, setupCPU []float64
	var srv *server
	var cs []*httpConn
	for i := 0; i < o.setups; i++ {
		s, c, wall, cpu, err := setupServer(o, w, dir)
		if err != nil {
			return nil, err
		}
		setupWall, setupCPU = append(setupWall, wall), append(setupCPU, cpu)
		if i == o.setups-1 {
			srv, cs = s, c
			break
		}
		closeConns(c)
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	defer srv.kill()
	defer closeConns(cs)

	runConns(cs, o.warmup, false)
	var before, after statsBody
	url := tenantURL(srv.addr) + "/stats"
	if err := getJSON(cs[0].client, url, &before); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	steal0, err := readCPUClock()
	if err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds * float64(time.Second))
	elapsed := runConns(cs, d, true).Seconds()
	steal1, err := readCPUClock()
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if err := getJSON(cs[0].client, url, &after); err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	closeConns(cs)
	if err := srv.stop(); err != nil {
		r.fail("%v", err)
	}

	var ops, failed int64
	var req, reads, writes [][]int64
	for _, c := range cs {
		ops += c.stats.ops
		failed += c.stats.failed
		r.attempted += c.stats.checked
		r.failed += c.stats.bad
		req = append(req, c.stats.reqNs)
		reads = append(reads, c.stats.readNs)
		writes = append(writes, c.stats.writeNs)
	}
	if ops == 0 {
		return nil, fmt.Errorf("no operation completed in %.1fs", elapsed)
	}
	lat := sortedCopy(req...)
	r.note("ops_per_s", "1/s", float64(ops-failed)/elapsed)
	r.note("req_p50_us", "us", quantile(lat, 0.50)/1e3)
	r.note("req_p99_us", "us", quantile(lat, 0.99)/1e3)
	r.note("req_samples", "count", float64(len(lat)))
	if w.batch == 0 {
		r.note("read_p99_us", "us", quantile(sortedCopy(reads...), 0.99)/1e3)
		r.note("write_p99_us", "us", quantile(sortedCopy(writes...), 0.99)/1e3)
	}
	if w.timed {
		if before.Timing == nil || after.Timing == nil {
			return nil, fmt.Errorf("timed workload reported no timing stats")
		}
		r.note("modeled_cycles_per_op", "cycles", float64(after.Timing.Cycles-before.Timing.Cycles)/float64(ops))
	}
	r.note("err_ratio", "ratio", float64(r.failed)/float64(r.attempted))
	// external_bytes is 0 for plaintext memory stores, so space_amp is
	// not a gated metric.
	r.note("space_amp", "ratio", float64(after.ExternalBytes)/float64(o.blocks*blockSize))
	r.note("setup_wall_s", "s", median(setupWall))
	r.note("host_steal_pct", "%", 100*steal1.stealSince(steal0))
	r.add("server_cpu_us_per_op", (cpu1-cpu0)*1e6/float64(ops))
	r.add("setup_s", median(setupCPU))
	r.add("server_rss_mb", rss)
	r.add("onchip_kb", float64(after.OnChipBytes)/1024)
	return r, nil
}

// cpuClock is this machine's aggregate CPU time from /proc/stat.
type cpuClock struct{ steal, total float64 }

func readCPUClock() (cpuClock, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuClock{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuClock{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var c cpuClock
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return cpuClock{}, err
		}
		c.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			c.steal = v
		}
	}
	return c, nil
}

// stealSince is the share of CPU time the host stole since prev.
func (c cpuClock) stealSince(prev cpuClock) float64 {
	return ratio(c.steal-prev.steal, c.total-prev.total)
}
