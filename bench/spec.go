package main

import "softrate/bench/report"

// The metric vocabulary. BENCHMARK.json at the repository root is this
// table rendered as JSON (`bench -spec` prints it; a test keeps the two
// equal), and every later performance claim on this repository is made
// in these names.

var workloads = []report.Workload{
	{Name: "hot-inproc", Why: "2 closed-loop callers of Server.Decide on 20000 pre-warmed links: linkstore+ctl+obs do all the work and transport, codec, eviction and disk none; the bypass for transport and cold-tier changes"},
	{Name: "wire-tcp", Why: "same links through Serve on loopback, one pipelined connection, 8 batches in flight: mostly syscalls, framing and TCP's own handleConn loop, the gate for the one-serving-core refactor"},
	{Name: "wire-udp", Why: "same through ServeUDP, window 8, 250 ms timeout: one syscall per datagram each way through the burst engine, where recvmmsg/sendmmsg must show and losses count as failures"},
	{Name: "wire-shm", Why: "same through ServeSHM, depth 8: the UDP burst engine with shmring in place of syscalls, so a burst change that helps datagrams but costs the ring shows"},
	{Name: "cold-churn", Why: "5000 hot links plus 200100 cold links walked past the TTL and the 32768-link RAM front on a virtual clock: eviction, group-commit spill and disk restore dominate and ctl is noise"},
	{Name: "phy-chain", Why: "Fig. 7/9 frames through TransmitWS, a Rayleigh channel and the batch-8 log-MAP receive: coding/modulation/phy/channel do all the work and the service layers none"},
	{Name: "paper-figs", Why: "experiments.Run over the sub-second trace-driven figures (fig14 fig15 fig17 fig18), 2 workers: mac/netsim/tcpsim/ratectl/engine dominate and BCJR does almost nothing"},
}

// Every workload reports every end-to-end metric, in its own unit of
// work: a decision on the five service workloads, a PHY frame (which
// yields exactly one decision) on phy-chain, a figure on paper-figs.
// README.md has the per-workload definitions.
var endToEnd = []report.Metric{
	{Name: "decisions_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "frames_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "resident_mib", Unit: "MiB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is every per-layer metric, layer = module name. All of them
// come from the traced run; see README.md for which end-to-end metric
// each is expected to move, and on which workload.
var perLayer = []report.Metric{
	// gen: the benchmark's own generator — if it dominates, the number
	// measures the generator.
	{Name: "gen.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "gen.busy_share", Unit: "share", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.ops_attempted", Unit: "count", Better: "higher"},
	{Name: "gen.ops_failed", Unit: "count", Better: "lower"},
	{Name: "gen.max_rate_ok", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.next_ns_per_frame", Unit: "ns", Better: "lower"},
	// Open-loop decision latency from the intended send time. The issue
	// wanted these end to end; on the reference sandbox two sets of runs
	// of one commit disagree by up to 18 % on the median and 80 % on the
	// p99, beyond any bound the contract allows, so they are per-layer.
	{Name: "decide_p50_us", Unit: "us", Better: "lower"},
	{Name: "decide_p90_us", Unit: "us", Better: "lower"},
	{Name: "decide_p99_us", Unit: "us", Better: "lower"},
	// Wall seconds of one fixed-work trial (one pass over the figure set
	// on paper-figs). It is the reciprocal of the end-to-end work rate, so
	// a 20 % drop in rate reads as a 25 % rise here: gating both would
	// only tighten the rate's bound, and the rate is the gated one.
	{Name: "figs_wall_s", Unit: "s", Better: "lower"},

	{Name: "codec.encode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "codec.allocs_per_batch", Unit: "count", Better: "lower"},

	{Name: "server.decide_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "server.decide_allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "server.rtt_ns_per_batch.tcp", Unit: "ns", Better: "lower"},
	{Name: "server.rtt_ns_per_batch.udp", Unit: "ns", Better: "lower"},
	{Name: "server.rtt_ns_per_batch.shm", Unit: "ns", Better: "lower"},
	{Name: "server.wire_residual_ns_per_op.tcp", Unit: "ns", Better: "lower"},
	{Name: "server.wire_residual_ns_per_op.udp", Unit: "ns", Better: "lower"},
	{Name: "server.wire_residual_ns_per_op.shm", Unit: "ns", Better: "lower"},
	{Name: "server.payloads_per_burst.udp", Unit: "count", Better: "higher"},
	{Name: "server.payloads_per_burst.shm", Unit: "count", Better: "higher"},
	{Name: "server.shed_bursts", Unit: "count", Better: "lower"},
	{Name: "server.malformed", Unit: "count", Better: "lower"},
	{Name: "server.evicted_conns", Unit: "count", Better: "lower"},
	{Name: "shmring.push_peek_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "obs.observe_ns", Unit: "ns", Better: "lower"},

	{Name: "linkstore.apply_hit_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "linkstore.apply_zipf_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "linkstore.apply_create_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "linkstore.restore_ram_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "linkstore.restore_cold_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "linkstore.evict_ns_per_link", Unit: "ns", Better: "lower"},
	{Name: "linkstore.bytes_per_link", Unit: "B", Better: "lower"},
	{Name: "linkstore.creates", Unit: "count", Better: "lower"},
	{Name: "linkstore.restores", Unit: "count", Better: "lower"},
	{Name: "linkstore.evictions", Unit: "count", Better: "lower"},
	{Name: "linkstore.cold_spills", Unit: "count", Better: "lower"},
	{Name: "linkstore.cold_restores", Unit: "count", Better: "lower"},
	{Name: "linkstore.shard_imbalance", Unit: "ratio", Better: "lower"},

	{Name: "ctl.apply_ns.softrate", Unit: "ns", Better: "lower"},
	{Name: "ctl.apply_ns.samplerate", Unit: "ns", Better: "lower"},
	{Name: "ctl.apply_ns.rraa", Unit: "ns", Better: "lower"},
	{Name: "ctl.apply_ns.snr", Unit: "ns", Better: "lower"},
	{Name: "ctl.apply_ns.charm", Unit: "ns", Better: "lower"},
	{Name: "ctl.state_codec_ns.softrate", Unit: "ns", Better: "lower"},
	{Name: "ctl.state_codec_ns.samplerate", Unit: "ns", Better: "lower"},
	{Name: "ctl.state_codec_ns.rraa", Unit: "ns", Better: "lower"},
	{Name: "ctl.state_codec_ns.snr", Unit: "ns", Better: "lower"},
	{Name: "ctl.state_codec_ns.charm", Unit: "ns", Better: "lower"},
	{Name: "core.apply_ns", Unit: "ns", Better: "lower"},

	{Name: "coldstore.put_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "coldstore.take_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "coldstore.index_bytes_per_link", Unit: "B", Better: "lower"},
	{Name: "coldstore.compact_s", Unit: "s", Better: "lower"},
	{Name: "coldstore.open_recover_s", Unit: "s", Better: "lower"},
	{Name: "coldstore.dead_ratio", Unit: "share", Better: "lower"},
	{Name: "faultfs.passthrough_ns_per_op", Unit: "ns", Better: "lower"},

	{Name: "coding.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "coding.bcjr_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "coding.bcjr_batch8_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "coding.viterbi_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "modulation.demap_ns_per_sym", Unit: "ns", Better: "lower"},
	{Name: "channel.gain_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "phy.transmit_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "phy.receive_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "phy.receive_batch8_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "phy.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "softphy.analyze_ns_per_frame", Unit: "ns", Better: "lower"},

	{Name: "experiments.fig13_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig14_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig15_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig16_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig17_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig18_s", Unit: "s", Better: "lower"},
	{Name: "engine.speedup_w2", Unit: "ratio", Better: "higher"},
}

// unitOf returns a declared metric's unit.
func unitOf(name string) string {
	for _, list := range [][]report.Metric{perLayer, endToEnd} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}
