//! The traced pass: replays a workload layer by layer through the crates'
//! public functions, at the workload's frozen `trace_theta`, with a span
//! around each call. It calls no engine entry point but `imm_sharded`, in
//! the replay of one workload, and no round metric is taken from it.

use crate::child::{
    build_service, emit_check, emit_value, load_graph, pool, query_sequence, run_query,
    seeds_are_valid, ChildArgs,
};
use crate::spec::{
    Call, Workload, IMM_SEED, SHARDED_EPSILON, SHARDED_TRACE_THETA, SMOKE_DIVISOR,
    WIDE_REPLAY_WORKLOAD,
};
use crate::stats::{percentile, self_times_ns, Recorder, Span};
use ripples_comm::{Communicator, ThreadWorld};
use ripples_core::dist_sharded::{imm_sharded, sample_batch_sharded, ExchangeStats};
use ripples_core::select::select_with_engine;
use ripples_core::{
    select_with_engine_store, ImmParams, SampleEngine, SamplerDispatch, SelectEngine,
};
use ripples_diffusion::{DynRrrStore, RrrCollection, RrrStore};
use ripples_graph::{Graph, VertexCutShard};
use ripples_rng::{SplitMix64, StreamFactory};
use ripples_serve::SketchService;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Queries of each kind the serve replay times.
const SERVE_QUERIES_PER_OP: usize = 60;

struct Replay<'a> {
    args: &'a ChildArgs,
    workload: &'static Workload,
    /// Divides every replay size in the smoke tier.
    shrink: usize,
    factory: StreamFactory,
}

/// One reference-or-fused batch on a `threads`-thread pool.
struct Batch {
    collection: RrrCollection,
    edges: u64,
    seconds: f64,
}

impl Replay<'_> {
    fn trace_theta(&self) -> usize {
        (self.workload.trace_theta / self.shrink).max(64)
    }

    fn sample_batch(
        &self,
        rec: &mut Recorder,
        name: &str,
        graph: &Graph,
        pool: &rayon::ThreadPool,
    ) -> Batch {
        let count = self.trace_theta();
        let ((collection, edges), seconds) = rec.span(name, |_| {
            let mut collection = RrrCollection::new();
            let mut dispatch = SamplerDispatch::new(
                graph,
                self.workload.model,
                &self.factory,
                SampleEngine::Auto,
                true,
            );
            let outcome = pool.install(|| dispatch.sample_batch(0, count, &mut collection));
            ((collection, outcome.total_work()), count as u64)
        });
        Batch {
            collection,
            edges,
            seconds,
        }
    }

    fn rng(&self, rec: &mut Recorder, n: u32) {
        let streams = (4_000_000 / self.shrink) as u64;
        let (_, seconds) = rec.span("rng.stream_setup", |_| {
            let mut acc = 0u64;
            for index in 0..streams {
                let mut stream = self.factory.sample_stream(index);
                acc ^= stream.bounded_u64(u64::from(n));
            }
            (black_box(acc), streams)
        });
        emit_value("rng.stream_setup_ns", seconds * 1e9 / streams as f64);
        let draws = (200_000_000 / self.shrink) as u64;
        let (_, seconds) = rec.span("rng.draws", |_| {
            let mut stream = SplitMix64::for_stream(IMM_SEED, 0);
            let mut acc = 0.0f64;
            for _ in 0..draws {
                acc += stream.unit_f64();
            }
            (black_box(acc), draws)
        });
        emit_value("rng.draws_per_s", draws as f64 / seconds);
    }

    /// `sampler.batch` at T threads and at one, then (on the workload with
    /// the most samples) the same batch with `ripples_trace` recording.
    fn sampler(&self, rec: &mut Recorder, graph: &Graph) -> Batch {
        let pool_t = pool(self.args.threads);
        let pool_1 = pool(1);
        let at_t = self.sample_batch(rec, "sampler.batch", graph, &pool_t);
        let at_1 = self.sample_batch(rec, "sampler.batch_1thread", graph, &pool_1);
        emit_check(
            "replay.sampler_thread_invariant",
            at_1.collection.total_entries() == at_t.collection.total_entries(),
            "1-thread batch holds the entries of the T-thread batch",
        );
        let samples = at_t.collection.len() as f64;
        emit_value("sampler.samples_per_s", samples / at_t.seconds);
        emit_value("sampler.edges_per_s", at_t.edges as f64 / at_t.seconds);
        emit_value(
            "sampler.entries_per_s",
            at_t.collection.total_entries() as f64 / at_t.seconds,
        );
        emit_value("sampler.t1_over_tT", at_1.seconds / at_t.seconds);
        if self.workload.name == WIDE_REPLAY_WORKLOAD {
            ripples_trace::start(None);
            let traced = self.sample_batch(rec, "sampler.batch_traced", graph, &pool_t);
            ripples_trace::stop();
            let untraced = self.sample_batch(rec, "sampler.batch", graph, &pool_t);
            let off = at_t.seconds.min(untraced.seconds);
            emit_value(
                "telemetry.trace_on_overhead_fraction",
                (traced.seconds - off) / off,
            );
        }
        at_t
    }

    /// `store.encode` / `store.decode` of the workload's backend, then
    /// `select.greedy` over that store.
    fn store_and_select(&self, rec: &mut Recorder, n: u32, batch: &Batch) {
        let collection = &batch.collection;
        let entries = collection.total_entries() as u64;
        let mut store = DynRrrStore::new(self.workload.storage(), n);
        let (_, seconds) = rec.span("store.encode", |_| {
            for sample in collection.iter() {
                store.push(sample);
            }
            ((), entries)
        });
        emit_value("store.encode_entries_per_s", entries as f64 / seconds);
        let (_, seconds) = rec.span("store.decode", |_| {
            let mut buffer = Vec::new();
            let mut decoded = 0u64;
            for index in 0..store.len() {
                store.decode_into(index, &mut buffer);
                decoded += buffer.len() as u64;
            }
            (black_box(decoded), entries)
        });
        emit_value("store.decode_entries_per_s", entries as f64 / seconds);
        let bytes = store.resident_bytes() as u64 + store.spill_bytes_written();
        emit_value("store.bytes_per_entry", bytes as f64 / entries as f64);

        let threads = self.args.threads;
        let k = self.workload.k;
        let pool_t = pool(threads);
        let ((selection, _stats), seconds) = rec.span("select.greedy", |_| {
            let picked = pool_t
                .install(|| select_with_engine_store(SelectEngine::Auto, &store, n, k, threads));
            (picked, entries)
        });
        emit_value("select.greedy_s", seconds);
        emit_value("select.entries_per_s", entries as f64 / seconds);
        if store.as_flat().is_none() {
            let (flat, _) = pool_t
                .install(|| select_with_engine(SelectEngine::Auto, collection, n, k, threads));
            emit_check(
                "replay.store_selection_equals_flat",
                flat.seeds == selection.seeds,
                "selection over the workload's store equals selection over the flat samples",
            );
        }
    }

    fn sharded(&self, rec: &mut Recorder, graph: &Graph, mt_samples_per_s: f64) {
        let n = graph.num_vertices();
        let world = ThreadWorld::new(2);
        let (shards, seconds) = rec.span("partition.build", |_| {
            let shards: Vec<VertexCutShard> = (0..2)
                .map(|rank| VertexCutShard::extract(graph, rank, 2))
                .collect();
            (shards, graph.num_edges() as u64)
        });
        emit_value("partition.build_s", seconds);

        let reps = (400 / self.shrink).max(4) as u64;
        let payload = u64::from(n) * 8;
        let (_, seconds) = rec.span("comm.allreduce", |_| {
            world.run(|comm| {
                let mut buffer = vec![u64::from(comm.rank()); n as usize];
                for _ in 0..reps {
                    comm.all_reduce_sum_u64(&mut buffer);
                }
                black_box(buffer[0])
            });
            ((), reps * payload)
        });
        emit_value(
            "comm.allreduce_bytes_per_s",
            (reps * payload) as f64 / seconds,
        );

        // 4 KiB to the peer, nothing to self: the shape of a frontier
        // exchange between two ranks.
        let reps = (40_000 / self.shrink).max(100) as u64;
        let (_, seconds) = rec.span("comm.exchange", |_| {
            world.run(|comm| {
                let mut sends = vec![Vec::new(), Vec::new()];
                sends[1 - comm.rank() as usize] = vec![u64::from(comm.rank()); 512];
                for _ in 0..reps {
                    let handle = comm.post_exchange_u64(&sends);
                    black_box(comm.wait_exchange(handle));
                }
            });
            ((), reps * 4096)
        });
        emit_value("comm.exchange_latency_us", seconds * 1e6 / reps as f64);
        emit_value("comm.exchange_bytes_per_s", (reps * 4096) as f64 / seconds);

        let count = (SHARDED_TRACE_THETA / self.shrink).max(64);
        let (_, seconds) = rec.span("sharded.sample_batch", |_| {
            world.run(|comm| {
                let mut out = RrrCollection::new();
                let mut stats = ExchangeStats::default();
                sample_batch_sharded(
                    comm,
                    &shards[comm.rank() as usize],
                    self.workload.model,
                    &self.factory,
                    0,
                    count,
                    &mut out,
                    &mut stats,
                )
            });
            ((), count as u64)
        });
        let samples_per_s = count as f64 / seconds;
        emit_value("sharded.samples_per_s", samples_per_s);
        emit_value(
            "sharded.vs_mt_sampling_ratio",
            mt_samples_per_s / samples_per_s,
        );

        // The one whole engine call of the replay. Its wall cannot be
        // gated on a shared host: the ranks sleep and wake each other at
        // every exchange, and a neighbour's burst multiplies that by 3-10.
        let k = self.workload.k;
        let params = ImmParams::new(k, SHARDED_EPSILON, self.workload.model, IMM_SEED);
        let (result, seconds) = rec.span("sharded.solve", |_| {
            let result = world
                .run(|comm| imm_sharded(comm, graph, &params))
                .swap_remove(0);
            let theta = result.theta as u64;
            (result, theta)
        });
        emit_check(
            "replay.sharded_solve",
            seeds_are_valid(&result.seeds, k, n),
            &format!("{} seeds, theta {}", result.seeds.len(), result.theta),
        );
        let counters = &result.report.counters;
        emit_value("sharded.time_to_seeds_s", seconds);
        emit_value(
            "partition.shard_bytes_max",
            counters.graph_bytes_peak as f64,
        );
        emit_value(
            "comm.bytes_total",
            result.report.comm.map_or(0, |c| c.bytes_moved) as f64,
        );
        emit_value(
            "comm.frontier_exchanges",
            counters.frontier_exchanges as f64,
        );
        emit_value(
            "comm.overlap_fraction",
            counters.overlap_nanos as f64 / 1e9 / seconds,
        );
    }

    fn serve(&self, rec: &mut Recorder, graph: &Graph) {
        let (mut service, seconds) = rec.span("serve.build", |_| {
            let service = build_service(self.workload, graph);
            let theta = service.theta() as u64;
            (service, theta)
        });
        emit_value("serve.build_s", seconds);
        let reference = service
            .topk(self.workload.k)
            .map(|(s, _)| s)
            .unwrap_or_default();

        let per_op = (SERVE_QUERIES_PER_OP / self.shrink).max(5);
        let sequence = query_sequence(self.args.workload_seed, graph.num_vertices());
        let mut latencies_ms: Vec<(&str, Vec<f64>)> = ["topk", "topk_excluding", "spread_estimate"]
            .map(|op| (op, Vec::new()))
            .to_vec();
        rec.span("serve.queries", |rec| {
            let mut done = 0u64;
            for query in sequence.iter().cycle() {
                if done == 3 * per_op as u64 {
                    break;
                }
                let slot = latencies_ms
                    .iter_mut()
                    .find(|(op, _)| *op == query.op())
                    .expect("every query has an op slot");
                if slot.1.len() == per_op {
                    continue;
                }
                let name = format!("serve.{}", query.op());
                let ((ok, _), seconds) =
                    rec.span(&name, |_| (run_query(&mut service, query, &reference), 1));
                emit_check("replay.query", ok, query.op());
                slot.1.push(seconds * 1e3);
                done += 1;
            }
            ((), done)
        });
        // `QueryReport` times a whole query, so the time inside selection
        // is not to be had from outside; what can be told apart is the
        // queries that select (`topk`, `topk_excluding`) from the one that
        // scans (`spread_estimate`), weighted as the 2:1:1 mix sends them.
        let mean_ms = |op: &str| {
            let values = &latencies_ms.iter().find(|(o, _)| *o == op).expect("op").1;
            values.iter().sum::<f64>() / values.len() as f64
        };
        for (op, values) in &latencies_ms {
            emit_value(&format!("serve.{op}_p50_ms"), percentile(values, 0.5));
        }
        let selecting_ms = 2.0 * mean_ms("topk") + mean_ms("topk_excluding");
        emit_value(
            "serve.topk_ops_time_share",
            selecting_ms / (selecting_ms + mean_ms("spread_estimate")),
        );

        let snapshot = self.args.scratch.join("replay.snapshot");
        let (bytes, seconds) = rec.span("serve.snapshot_write", |_| {
            service
                .snapshot_to(&snapshot)
                .expect("write the replay snapshot");
            let bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len());
            (bytes, bytes)
        });
        emit_value("serve.snapshot_write_bytes_per_s", bytes as f64 / seconds);
        let (_, seconds) = rec.span("serve.snapshot_restore", |_| {
            let restored = SketchService::restore_from(&snapshot, graph, SelectEngine::Auto)
                .expect("restore the replay snapshot");
            (restored, bytes)
        });
        emit_value("serve.restore_bytes_per_s", bytes as f64 / seconds);
    }
}

pub fn run_replay(args: &ChildArgs) {
    let workload = args.workload;
    let replay = Replay {
        args,
        workload,
        shrink: if args.smoke {
            SMOKE_DIVISOR as usize
        } else {
            1
        },
        factory: StreamFactory::new(IMM_SEED),
    };
    let started = Instant::now();
    let mut rec = Recorder::new();
    rec.span("replay", |rec| {
        let (graph, seconds) = rec.span("graph.load", |_| {
            let graph = load_graph(workload, &args.graph_path, args.workload_seed);
            let edges = graph.num_edges() as u64;
            (graph, edges)
        });
        emit_value("graph.load_edges_per_s", graph.num_edges() as f64 / seconds);
        let n = graph.num_vertices();
        if workload.name == WIDE_REPLAY_WORKLOAD {
            replay.rng(rec, n);
        }
        let batch = replay.sampler(rec, &graph);
        replay.store_and_select(rec, n, &batch);
        let mt_samples_per_s = batch.collection.len() as f64 / batch.seconds;
        if workload.name == WIDE_REPLAY_WORKLOAD {
            replay.sharded(rec, &graph, mt_samples_per_s);
        }
        if workload.call == Call::Serve {
            replay.serve(rec, &graph);
        }
        ((), 0)
    });
    emit_value("replay.wall_s", started.elapsed().as_secs_f64());
    if let Some(path) = &args.spans_out {
        write_spans(path, workload.name, rec.spans()).expect("write the replay spans");
    }
}

/// One JSON object per line; the parent wraps the lines of every workload
/// into `trace.json`. `parent` is the `id` of a span of the same workload;
/// `self_ns` is the span's time minus what its children cover.
fn write_spans(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let own = self_times_ns(spans);
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"count\":{}}}",
            span.name, span.start_ns, span.end_ns, own[id], span.count
        )?;
    }
    out.flush()
}
