package main

import (
	"runtime"

	"lxfi/internal/core"
)

// perLayer derives the per-layer metrics of a traced run: counts per
// operation from the untraced enforced pass u, self times from the
// traced pass t, and the substrate/monitor split from u against the
// stock pass s. Metrics of a layer the workload does not use read 0,
// except netstack's, which only workloads that drive the netstack
// (net) print.
func perLayer(u, t, s *pass, net bool) map[string]metric {
	m := map[string]metric{}
	ops := float64(u.rec.ops)
	per := func(x uint64) float64 { return float64(x) / ops }
	share := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	ratio := func(name string, v float64) { m[name] = metric{v, "ratio"} }

	// core, annot, wst, caps: the monitor's counters over the pass.
	mon := func(f func(m *core.MetricsSnapshot) uint64) uint64 {
		return u.delta(func(s *snapshots, after bool) uint64 {
			if after {
				return f(&s.mon1)
			}
			return f(&s.mon0)
		})
	}
	crossings := per(mon(func(m *core.MetricsSnapshot) uint64 { return m.FuncEntries }))
	indCalls := mon(func(m *core.MetricsSnapshot) uint64 { return m.IndCallAll })
	checks := mon(func(m *core.MetricsSnapshot) uint64 { return m.CapChecks })
	wstProbes := mon(func(m *core.MetricsSnapshot) uint64 { return m.WSTProbes })
	count("core.crossings_per_op", crossings)
	count("core.ind_calls_per_op", per(indCalls))
	ratio("core.ind_slow_share", share(mon(func(m *core.MetricsSnapshot) uint64 { return m.IndCallSlow }), indCalls))
	ratio("core.ind_cache_hit_ratio", share(mon(func(m *core.MetricsSnapshot) uint64 { return m.IndCacheHits }), indCalls))
	count("core.principal_switches_per_op", per(mon(func(m *core.MetricsSnapshot) uint64 { return m.PrincipalSwitches })))
	count("core.mem_write_checks_per_op", per(mon(func(m *core.MetricsSnapshot) uint64 { return m.MemWriteChecks })))
	count("core.violations", float64(u.violations+t.violations))
	count("annot.actions_per_op", per(mon(func(m *core.MetricsSnapshot) uint64 { return m.AnnotationActions })))
	count("wst.probes_per_op", per(wstProbes))
	ratio("wst.hit_ratio", share(mon(func(m *core.MetricsSnapshot) uint64 { return m.WSTHits }), wstProbes))
	count("caps.checks_per_op", per(checks))
	ratio("caps.cache_hit_ratio", share(mon(func(m *core.MetricsSnapshot) uint64 { return m.CapCacheHits }), checks))
	count("caps.grants_per_op", per(mon(func(m *core.MetricsSnapshot) uint64 { return m.CapGrants })))
	count("caps.revokes_per_op", per(mon(func(m *core.MetricsSnapshot) uint64 { return m.CapRevokes })))
	count("caps.epoch_bumps_per_op", per(mon(func(m *core.MetricsSnapshot) uint64 { return m.CapEpoch })))

	// Substrate against monitor: stock time per op is the substrate;
	// what enforcement adds is the monitor.
	enforced, stock := u.threadNsPerOp(), s.threadNsPerOp()
	monitor := enforced - stock
	m["substrate.ns_per_op"] = metric{stock, "ns"}
	m["core.monitor_ns_per_op"] = metric{monitor, "ns"}
	perCrossing := 0.0
	if crossings > 0 {
		perCrossing = monitor / crossings
	}
	m["core.ns_per_crossing"] = metric{perCrossing, "ns"}
	m["trace.overhead_pct"] = metric{(t.threadNsPerOp() - enforced) / enforced * 100, "%"}

	// Self time per call at each layer boundary, from the spans.
	totals := mergeTotals(t.tracers)
	var vfsSelf int64
	for name := spanAllocSkb; name < nSpans; name++ {
		if name < spanCreate && !net {
			continue
		}
		tot := totals[name]
		mean := 0.0
		if tot.n > 0 {
			mean = float64(tot.self) / float64(tot.n) / 1e3
		}
		m[spanNames[name]+".self_us"] = metric{mean, "us"}
		if name >= spanCreate {
			vfsSelf += tot.self
		}
	}
	opTime := totals[spanOp].dur
	vfsShare := 0.0
	if opTime > 0 {
		vfsShare = float64(vfsSelf) / float64(opTime)
	}
	ratio("vfs.self_share", vfsShare)

	// Substrate counters and the Go runtime over the same pass.
	sub := func(f func(s *substrate) uint64) uint64 {
		return u.delta(func(s *snapshots, after bool) uint64 {
			if after {
				return f(&s.sub1)
			}
			return f(&s.sub0)
		})
	}
	mem := func(f func(m *runtime.MemStats) uint64) uint64 {
		return u.delta(func(s *snapshots, after bool) uint64 {
			if after {
				return f(&s.mem1)
			}
			return f(&s.mem0)
		})
	}

	// netstack batch path.
	if net {
		perDrain := 0.0
		if u.rec.drains > 0 {
			perDrain = float64(u.rec.drained) / float64(u.rec.drains)
		}
		count("netstack.segments_per_drain", perDrain)
		count("netstack.tx_denied", float64(sub(func(s *substrate) uint64 { return s.txDenied })))
		count("netstack.backlog_max", float64(t.rec.backlogMax))
	}

	// vfs page cache and writeback, blockdev sector I/O.
	count("vfs.pages_flushed_per_op", per(sub(func(s *substrate) uint64 { return s.pagesFlushed })))
	count("vfs.forced_foreground_per_op", per(sub(func(s *substrate) uint64 { return s.forcedForeground })))
	count("vfs.page_cache_pages", float64(u.rounds[len(u.rounds)-1].sub1.pageCachePages))
	count("blockdev.sector_reads_per_op", per(sub(func(s *substrate) uint64 { return s.sectorReads })))
	count("blockdev.sector_writes_per_op", per(sub(func(s *substrate) uint64 { return s.sectorWrites })))

	count("go.allocs_per_op", per(mem(func(m *runtime.MemStats) uint64 { return m.Mallocs })))
	m["go.bytes_per_op"] = metric{per(mem(func(m *runtime.MemStats) uint64 { return m.TotalAlloc })), "B"}
	count("go.gc_cycles", float64(mem(func(m *runtime.MemStats) uint64 { return uint64(m.NumGC) })))
	return m
}
