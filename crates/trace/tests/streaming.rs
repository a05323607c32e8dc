//! End-to-end streaming trace tests: captured streams agree with the
//! branch-profile monitor, detach restores the zero-overhead baseline
//! while crediting trace stats, and pool fleets drain per-job channel
//! sinks cross-thread with fleet-aggregated counters.

use std::collections::HashMap;

use wizard_engine::store::Linker;
use wizard_engine::{EngineConfig, Process, Value};
use wizard_monitors::BranchMonitor;
use wizard_pool::{Job, Pool, PoolConfig};
use wizard_suites::richards;
use wizard_trace::{decode_trace, ChannelSink, StreamingTraceMonitor, TraceEvent};

fn richards_process(config: EngineConfig) -> Process {
    Process::new(richards::module(), config, &Linker::new()).expect("richards instantiates")
}

/// Decoded `(taken, not_taken)` per location, from a captured stream.
fn branch_totals(bytes: &[u8]) -> Vec<(wizard_engine::Location, u64, u64)> {
    let (dict, events) = decode_trace(bytes).expect("stream decodes");
    let mut per_site: HashMap<u32, (u64, u64)> = HashMap::new();
    for e in &events {
        if let TraceEvent::Branch { site, taken } = *e {
            let s = per_site.entry(site).or_insert((0, 0));
            if taken {
                s.0 += 1;
            } else {
                s.1 += 1;
            }
        }
    }
    let mut v: Vec<_> = per_site
        .into_iter()
        .map(|(site, (t, n))| (dict.location(site).expect("site in dict"), t, n))
        .collect();
    v.sort_by_key(|(l, _, _)| *l);
    v
}

/// The captured stream carries exactly the same per-site taken /
/// not-taken totals as the hand-written branch-profile monitor.
#[test]
fn streamed_trace_agrees_with_branch_monitor() {
    let mut traced = richards_process(EngineConfig::interpreter());
    let mon = traced.attach_monitor(StreamingTraceMonitor::in_memory()).expect("attach");
    let out = traced.invoke_export("run", &[Value::I32(2)]).expect("runs");
    traced.detach_monitor(mon.handle()).expect("detach");
    let data = mon.borrow().trace_data().expect("in-memory tracer");
    let totals = branch_totals(&data);
    assert!(!totals.is_empty(), "richards has live branches");

    let mut profiled = richards_process(EngineConfig::interpreter());
    let bm = profiled.attach_monitor(BranchMonitor::new()).expect("attach");
    assert_eq!(profiled.invoke_export("run", &[Value::I32(2)]).expect("runs"), out);
    let expected: Vec<_> =
        bm.borrow().site_stats().into_iter().filter(|(_, t, n)| t + n > 0).collect();
    assert_eq!(totals, expected);
}

/// Streams are identical whether probes fire from the interpreter or
/// intrinsified from the JIT.
#[test]
fn streamed_trace_is_tier_invariant() {
    let mut captures = Vec::new();
    for config in
        [EngineConfig::interpreter(), EngineConfig::jit(), EngineConfig::jit_no_intrinsics()]
    {
        let mut p = richards_process(config);
        let mon = p.attach_monitor(StreamingTraceMonitor::in_memory()).expect("attach");
        p.invoke_export("run", &[Value::I32(2)]).expect("runs");
        p.detach_monitor(mon.handle()).expect("detach");
        captures.push(mon.borrow().trace_data().expect("in-memory tracer"));
    }
    assert_eq!(captures[0], captures[1], "jit diverges from interpreter");
    assert_eq!(captures[0], captures[2], "uninstrinsified jit diverges");
}

/// Attach + detach is invisible: the baseline probe state comes back,
/// and the captured activity lands in `EngineStats`.
#[test]
fn detach_restores_baseline_and_credits_stats() {
    let mut p = richards_process(EngineConfig::interpreter());
    assert_eq!(p.stats().trace_events, 0);
    let mon = p.attach_monitor(StreamingTraceMonitor::in_memory()).expect("attach");
    assert!(p.probed_location_count() > 0, "tracer installs local probes");
    p.invoke_export("run", &[Value::I32(1)]).expect("runs");
    p.detach_monitor(mon.handle()).expect("detach");

    assert_eq!(p.probed_location_count(), 0, "detach leaves probes behind");
    assert!(!p.in_global_mode());
    let mon = mon.borrow();
    let c = mon.counters();
    let data = mon.trace_data().expect("in-memory tracer");
    assert!(c.events > 0 && c.branches > 0);
    assert_eq!(c.bytes, data.len() as u64, "counters track emitted bytes");
    assert_eq!(p.stats().trace_events, c.events);
    assert_eq!(p.stats().trace_bytes, c.bytes);
    assert!(mon.sink_error().is_none());
}

/// A pool fleet streams per-job traces through bounded channels; the
/// main thread drains every receiver, each stream decodes, and the
/// fleet-merged stats aggregate the per-job trace counters.
#[test]
fn pool_fleet_streams_through_channel_sinks() {
    let (rx_tx, rx_rx) = std::sync::mpsc::channel();
    let mut pool = Pool::new(PoolConfig { shards: 3, ..PoolConfig::default() });
    for i in 0..6 {
        let rx_tx = rx_tx.clone();
        pool.submit(
            Job::new(format!("richards-{i}"), richards::module(), "run", vec![Value::I32(1)])
                .with_monitor(move || {
                    let (sink, rx) = ChannelSink::bounded(1024);
                    rx_tx.send(rx).expect("main thread is listening");
                    StreamingTraceMonitor::with_sink(Box::new(sink))
                }),
        );
    }
    drop(rx_tx);
    let outcome = pool.run();
    assert!(outcome.all_ok(), "fleet jobs all complete");

    let mut streams = 0u64;
    let mut total_events = 0u64;
    let mut total_bytes = 0u64;
    for rx in rx_rx.iter() {
        let mut bytes = Vec::new();
        for chunk in rx.iter() {
            bytes.extend_from_slice(&chunk);
        }
        let (dict, events) = decode_trace(&bytes).expect("job stream decodes");
        assert!(!dict.is_empty() && !events.is_empty());
        streams += 1;
        total_events += events.len() as u64;
        total_bytes += bytes.len() as u64;
    }
    assert_eq!(streams, 6, "one stream per job");
    assert_eq!(outcome.stats.trace_events, total_events, "fleet stats merge trace events");
    assert_eq!(outcome.stats.trace_bytes, total_bytes, "fleet stats merge trace bytes");
}
