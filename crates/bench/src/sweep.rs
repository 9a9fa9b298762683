//! Sweep specification and the structured run records it produces.
//!
//! A [`SweepSpec`] enumerates experiment configurations (protocol ×
//! workload × machine size × seed × network parameters). The runner
//! (`runner.rs`) executes each config's `Machine` simulation in-process
//! and produces one [`RunRecord`] per config — a flat, deterministic
//! snapshot of the outcome that serializes to one JSON line (hand-rolled;
//! the build environment has no serde) and round-trips through the
//! on-disk result cache.
//!
//! Determinism contract: a config's canonical [`SweepConfig::key`] fixes
//! every semantic input of the simulation. The per-config RNG salt is
//! *derived* from that key (`derived_seed`, via the simulator's FxHash),
//! never from worker/thread state, so records are bit-identical regardless
//! of how many jobs the runner uses.

use dirtree_core::protocol::ProtocolKind;
use dirtree_machine::{MachineConfig, RunOutcome, TopologyKind};
use dirtree_net::Fabric;
use dirtree_sim::hash::FxHasher;
use dirtree_sim::metrics::{ClassCounts, MetricsSnapshot, MsgClass};
use dirtree_sim::Histogram;
use dirtree_workloads::WorkloadKind;
use std::fmt::Write as _;
use std::hash::Hasher;

/// One experiment configuration: a workload on a protocol on a machine.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    pub machine: MachineConfig,
    pub protocol: ProtocolKind,
    pub workload: WorkloadKind,
    /// Sweep-level replication index. 0 reproduces the published inputs;
    /// non-zero values perturb RNG-consuming workloads via a salt hashed
    /// from the config key (see [`WorkloadKind::with_seed`]).
    pub seed: u64,
}

impl SweepConfig {
    pub fn new(machine: MachineConfig, protocol: ProtocolKind, workload: WorkloadKind) -> Self {
        Self {
            machine,
            protocol,
            workload,
            seed: 0,
        }
    }

    /// Canonical single-line key spelling out every semantic field of the
    /// configuration. This is the cache identity: two configs with equal
    /// keys must simulate identically.
    pub fn key(&self) -> String {
        let m = &self.machine;
        let net = &m.net;
        let fabric = match net.fabric {
            Fabric::KaryNcube => "cube",
            Fabric::Bus => "bus",
        };
        let topo = match m.topology {
            TopologyKind::Hypercube => "hypercube".to_string(),
            TopologyKind::KaryNcube { radix } => format!("kary{radix}"),
        };
        let mut key = String::with_capacity(192);
        let _ = write!(
            key,
            "v1|proto={}|wl={}|nodes={}|cache={}/{}|blk={}|hdr={}|mem={}|cl={}|\
             net={fabric}{{sw={},w={},cont={},loc={}}}|topo={topo}|\
             pp={{trap={},pair={},silent={}}}|sync={}|seed={}",
            self.protocol.name(),
            workload_key(&self.workload),
            m.nodes,
            m.cache.lines,
            m.cache.associativity,
            m.block_bytes,
            m.header_bytes,
            m.mem_latency,
            m.cache_latency,
            net.switch_delay,
            net.link_width_bits,
            net.contention as u8,
            net.local_delay,
            m.protocol.sw_trap_cycles,
            m.protocol.dir_tree_pairing as u8,
            m.protocol.dir_tree_silent_replace as u8,
            m.sync_latency,
            self.seed,
        );
        // Virtual-channel parameters extend the key only when non-default,
        // so every pre-VC cache entry and golden file keeps its identity.
        if net.vc_nondefault() {
            let _ = write!(
                key,
                "|vc={{n={},ad={},cr={}}}",
                net.vc_count(),
                net.adaptive as u8,
                net.vc_credits,
            );
        }
        // Same idiom for the adaptive-protocol thresholds: the segment
        // appears only when they differ from the defaults.
        if m.protocol.adapt_nondefault() {
            let _ = write!(
                key,
                "|ap={{up={},down={},sat={}}}",
                m.protocol.adapt_flip_up, m.protocol.adapt_flip_down, m.protocol.adapt_saturation,
            );
        }
        key
    }

    /// Content hash of the canonical key (FxHash, `crates/sim/src/hash.rs`).
    pub fn config_hash(&self) -> u64 {
        hash_str(&self.key())
    }

    /// The workload RNG salt for this config: 0 for seed 0 (published
    /// inputs), otherwise hashed from the full config key so it depends
    /// only on the config — never on worker scheduling.
    pub fn derived_seed(&self) -> u64 {
        if self.seed == 0 {
            0
        } else {
            self.config_hash()
        }
    }

    /// The workload actually simulated (seed salt applied).
    pub fn effective_workload(&self) -> WorkloadKind {
        self.workload.with_seed(self.derived_seed())
    }
}

/// Canonical workload key including *all* parameters (unlike
/// `WorkloadKind::name`, which elides seeds for display).
pub fn workload_key(w: &WorkloadKind) -> String {
    match *w {
        WorkloadKind::Mp3d { particles, steps } => format!("mp3d{{p={particles},s={steps}}}"),
        WorkloadKind::Lu { n } => format!("lu{{n={n}}}"),
        WorkloadKind::LuBlocked { n, block } => format!("lub{{n={n},b={block}}}"),
        WorkloadKind::Floyd { vertices, seed } => format!("floyd{{v={vertices},seed={seed}}}"),
        WorkloadKind::Fft { points } => format!("fft{{n={points}}}"),
        WorkloadKind::Jacobi { grid, sweeps } => format!("jacobi{{g={grid},s={sweeps}}}"),
        WorkloadKind::Sharing { blocks, rounds } => format!("sharing{{b={blocks},r={rounds}}}"),
        WorkloadKind::Migratory { blocks, rounds } => format!("migratory{{b={blocks},r={rounds}}}"),
        WorkloadKind::Storm { words, passes } => format!("storm{{w={words},p={passes}}}"),
        WorkloadKind::PcPipeline { buffers, rounds } => {
            format!("pcpipe{{b={buffers},r={rounds}}}")
        }
        WorkloadKind::TokenRing { tokens, laps } => format!("tokenring{{t={tokens},l={laps}}}"),
        WorkloadKind::Broadcast {
            blocks,
            rounds,
            scans,
        } => format!("broadcast{{b={blocks},r={rounds},s={scans}}}"),
        WorkloadKind::FalseShare { blocks, rounds } => {
            format!("falseshare{{b={blocks},r={rounds}}}")
        }
    }
}

/// FxHash of a string.
pub fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// A named collection of configs to run.
#[derive(Clone, Debug, Default)]
pub struct SweepSpec {
    /// Used for the JSONL output filename under the sweep directory.
    pub name: String,
    pub configs: Vec<SweepConfig>,
}

impl SweepSpec {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            configs: Vec::new(),
        }
    }

    pub fn push(&mut self, config: SweepConfig) {
        self.configs.push(config);
    }

    /// Grid helper: every (protocol, node count) pair for one workload.
    pub fn grid(
        name: impl Into<String>,
        workload: WorkloadKind,
        node_counts: &[u32],
        protocols: &[ProtocolKind],
        configure: impl Fn(u32) -> MachineConfig,
    ) -> Self {
        let mut spec = Self::new(name);
        for &nodes in node_counts {
            for &protocol in protocols {
                spec.push(SweepConfig::new(configure(nodes), protocol, workload));
            }
        }
        spec
    }
}

/// The deterministic, serializable outcome of one config's simulation.
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    pub key: String,
    pub config_hash: u64,
    pub protocol: String,
    pub workload: String,
    pub nodes: u32,
    pub seed: u64,
    pub cycles: u64,
    pub reads: u64,
    pub writes: u64,
    pub read_hits: u64,
    pub write_hits: u64,
    pub read_misses: u64,
    pub write_misses: u64,
    pub messages: u64,
    pub fill_acks: u64,
    pub bytes: u64,
    pub invalidations: u64,
    pub replacement_invalidations: u64,
    pub software_traps: u64,
    pub broadcasts: u64,
    pub tree_merges: u64,
    pub tree_push_downs: u64,
    pub evictions: u64,
    pub barriers: u64,
    pub lock_acquires: u64,
    pub max_controller_busy: u64,
    /// Simulation events delivered (throughput denominator for the
    /// hot-path benchmarks; deterministic).
    pub events: u64,
    /// Event-queue high-water mark (deterministic schedule property).
    pub peak_queue_depth: u64,
    /// Adaptive-protocol pattern samples and mode flips. All zero for
    /// static protocols, and serialized only when non-zero, so every
    /// pre-adaptive record and golden file keeps its exact bytes.
    pub pattern_producer_consumer: u64,
    pub pattern_read_mostly: u64,
    pub pattern_migratory: u64,
    pub pattern_write_shared: u64,
    pub pattern_private: u64,
    pub mode_flips_to_update: u64,
    pub mode_flips_to_invalidate: u64,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub net_hops: u64,
    /// Virtual channels simulated (1 = the classic single-channel model;
    /// the VC fields below serialize only when this exceeds 1, keeping
    /// legacy records byte-stable).
    pub net_vcs: u32,
    /// Cycles spent waiting for the injection port (plus all bus
    /// arbitration, which has no per-hop links to attribute to).
    pub net_inject_wait_cycles: u64,
    /// Cycles spent waiting for transit links along routes.
    pub net_link_wait_cycles: u64,
    /// Per-virtual-channel share of the wait above (empty when
    /// single-channel).
    pub net_vc_wait_cycles: Vec<u64>,
    pub read_miss_latency: Histogram,
    pub write_miss_latency: Histogram,
    pub sharers_at_write: Histogram,
    /// Observability export: per-class message counts, transaction latency,
    /// wave geometry, link utilization (all-zero when the machine was
    /// built without the `trace` feature; this crate enables it).
    pub metrics: MetricsSnapshot,
}

impl RunRecord {
    /// Snapshot a machine run into a record.
    pub fn from_outcome(config: &SweepConfig, outcome: &RunOutcome) -> Self {
        let s = &outcome.stats;
        let n = &outcome.net;
        Self {
            key: config.key(),
            config_hash: config.config_hash(),
            protocol: config.protocol.name(),
            workload: config.workload.name(),
            nodes: config.machine.nodes,
            seed: config.seed,
            cycles: outcome.cycles,
            reads: s.reads,
            writes: s.writes,
            read_hits: s.read_hits,
            write_hits: s.write_hits,
            read_misses: s.read_misses,
            write_misses: s.write_misses,
            messages: s.messages,
            fill_acks: s.fill_acks,
            bytes: s.bytes,
            invalidations: s.invalidations,
            replacement_invalidations: s.replacement_invalidations,
            software_traps: s.software_traps,
            broadcasts: s.broadcasts,
            tree_merges: s.tree_merges,
            tree_push_downs: s.tree_push_downs,
            evictions: s.evictions,
            barriers: s.barriers,
            lock_acquires: s.lock_acquires,
            max_controller_busy: s.max_controller_busy,
            events: s.events,
            peak_queue_depth: s.peak_queue_depth,
            pattern_producer_consumer: s.pattern_producer_consumer,
            pattern_read_mostly: s.pattern_read_mostly,
            pattern_migratory: s.pattern_migratory,
            pattern_write_shared: s.pattern_write_shared,
            pattern_private: s.pattern_private,
            mode_flips_to_update: s.mode_flips_to_update,
            mode_flips_to_invalidate: s.mode_flips_to_invalidate,
            net_messages: n.messages,
            net_bytes: n.bytes,
            net_hops: n.total_hops,
            net_vcs: config.machine.net.vc_count(),
            net_inject_wait_cycles: n.inject_wait_cycles,
            net_link_wait_cycles: n.link_wait_cycles,
            net_vc_wait_cycles: n.vc_wait_cycles.clone(),
            read_miss_latency: s.read_miss_latency.clone(),
            write_miss_latency: s.write_miss_latency.clone(),
            sharers_at_write: s.sharers_at_write.clone(),
            metrics: outcome.metrics.clone(),
        }
    }

    /// Critical-path messages (fill acknowledgements excluded, as in the
    /// paper's Table 1).
    pub fn critical_messages(&self) -> u64 {
        self.messages - self.fill_acks
    }

    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Aggregate network wait (the pre-split `net_contention_cycles`
    /// scalar; still serialized under that name for record compatibility).
    pub fn net_contention_cycles(&self) -> u64 {
        self.net_inject_wait_cycles + self.net_link_wait_cycles
    }

    /// Serialize to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(640);
        out.push('{');
        json_str(&mut out, "key", &self.key);
        json_u64(&mut out, "config_hash", self.config_hash);
        json_str(&mut out, "protocol", &self.protocol);
        json_str(&mut out, "workload", &self.workload);
        json_u64(&mut out, "nodes", self.nodes as u64);
        json_u64(&mut out, "seed", self.seed);
        json_u64(&mut out, "cycles", self.cycles);
        json_u64(&mut out, "reads", self.reads);
        json_u64(&mut out, "writes", self.writes);
        json_u64(&mut out, "read_hits", self.read_hits);
        json_u64(&mut out, "write_hits", self.write_hits);
        json_u64(&mut out, "read_misses", self.read_misses);
        json_u64(&mut out, "write_misses", self.write_misses);
        json_u64(&mut out, "messages", self.messages);
        json_u64(&mut out, "fill_acks", self.fill_acks);
        json_u64(&mut out, "bytes", self.bytes);
        json_u64(&mut out, "invalidations", self.invalidations);
        json_u64(
            &mut out,
            "replacement_invalidations",
            self.replacement_invalidations,
        );
        json_u64(&mut out, "software_traps", self.software_traps);
        json_u64(&mut out, "broadcasts", self.broadcasts);
        json_u64(&mut out, "tree_merges", self.tree_merges);
        json_u64(&mut out, "tree_push_downs", self.tree_push_downs);
        json_u64(&mut out, "evictions", self.evictions);
        json_u64(&mut out, "barriers", self.barriers);
        json_u64(&mut out, "lock_acquires", self.lock_acquires);
        json_u64(&mut out, "max_controller_busy", self.max_controller_busy);
        json_u64(&mut out, "events", self.events);
        json_u64(&mut out, "peak_queue_depth", self.peak_queue_depth);
        for (name, v) in [
            ("pattern_producer_consumer", self.pattern_producer_consumer),
            ("pattern_read_mostly", self.pattern_read_mostly),
            ("pattern_migratory", self.pattern_migratory),
            ("pattern_write_shared", self.pattern_write_shared),
            ("pattern_private", self.pattern_private),
            ("mode_flips_to_update", self.mode_flips_to_update),
            ("mode_flips_to_invalidate", self.mode_flips_to_invalidate),
        ] {
            if v > 0 {
                json_u64(&mut out, name, v);
            }
        }
        json_u64(&mut out, "net_messages", self.net_messages);
        json_u64(&mut out, "net_bytes", self.net_bytes);
        json_u64(&mut out, "net_hops", self.net_hops);
        json_u64(
            &mut out,
            "net_contention_cycles",
            self.net_contention_cycles(),
        );
        if self.net_vcs > 1 {
            json_u64(&mut out, "net_vcs", self.net_vcs as u64);
            json_u64(
                &mut out,
                "net_inject_wait_cycles",
                self.net_inject_wait_cycles,
            );
            json_u64(&mut out, "net_link_wait_cycles", self.net_link_wait_cycles);
            out.push_str("\"net_vc_wait_cycles\":[");
            for (i, w) in self.net_vc_wait_cycles.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{w}");
            }
            out.push_str("],");
        }
        json_hist(&mut out, "read_miss_latency", &self.read_miss_latency);
        json_hist(&mut out, "write_miss_latency", &self.write_miss_latency);
        json_hist(&mut out, "sharers_at_write", &self.sharers_at_write);
        json_metrics(&mut out, "metrics", &self.metrics);
        // Remove the trailing comma the field helpers append.
        out.pop();
        out.push('}');
        out
    }

    /// Parse a record previously produced by [`Self::to_json`].
    pub fn from_json(line: &str) -> Result<Self, String> {
        let v = json::parse(line)?;
        let obj = v.as_object().ok_or("record is not a JSON object")?;
        let get = |name: &str| -> Result<&json::Value, String> {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {name}"))
        };
        let get_u64 = |name: &str| -> Result<u64, String> {
            get(name)?
                .as_u64()
                .ok_or_else(|| format!("field {name} is not a u64"))
        };
        let opt_u64 = |name: &str| -> Option<u64> { get(name).ok().and_then(json::Value::as_u64) };
        let get_str = |name: &str| -> Result<String, String> {
            Ok(get(name)?
                .as_str()
                .ok_or_else(|| format!("field {name} is not a string"))?
                .to_string())
        };
        let get_hist = |name: &str| -> Result<Histogram, String> { parse_hist(get(name)?) };
        Ok(Self {
            key: get_str("key")?,
            config_hash: get_u64("config_hash")?,
            protocol: get_str("protocol")?,
            workload: get_str("workload")?,
            nodes: get_u64("nodes")? as u32,
            seed: get_u64("seed")?,
            cycles: get_u64("cycles")?,
            reads: get_u64("reads")?,
            writes: get_u64("writes")?,
            read_hits: get_u64("read_hits")?,
            write_hits: get_u64("write_hits")?,
            read_misses: get_u64("read_misses")?,
            write_misses: get_u64("write_misses")?,
            messages: get_u64("messages")?,
            fill_acks: get_u64("fill_acks")?,
            bytes: get_u64("bytes")?,
            invalidations: get_u64("invalidations")?,
            replacement_invalidations: get_u64("replacement_invalidations")?,
            software_traps: get_u64("software_traps")?,
            broadcasts: get_u64("broadcasts")?,
            tree_merges: get_u64("tree_merges")?,
            tree_push_downs: get_u64("tree_push_downs")?,
            evictions: get_u64("evictions")?,
            barriers: get_u64("barriers")?,
            lock_acquires: get_u64("lock_acquires")?,
            max_controller_busy: get_u64("max_controller_busy")?,
            events: get_u64("events")?,
            peak_queue_depth: get_u64("peak_queue_depth")?,
            pattern_producer_consumer: opt_u64("pattern_producer_consumer").unwrap_or(0),
            pattern_read_mostly: opt_u64("pattern_read_mostly").unwrap_or(0),
            pattern_migratory: opt_u64("pattern_migratory").unwrap_or(0),
            pattern_write_shared: opt_u64("pattern_write_shared").unwrap_or(0),
            pattern_private: opt_u64("pattern_private").unwrap_or(0),
            mode_flips_to_update: opt_u64("mode_flips_to_update").unwrap_or(0),
            mode_flips_to_invalidate: opt_u64("mode_flips_to_invalidate").unwrap_or(0),
            net_messages: get_u64("net_messages")?,
            net_bytes: get_u64("net_bytes")?,
            net_hops: get_u64("net_hops")?,
            // VC fields are absent from legacy (single-channel) records:
            // the split is unrecoverable there, so the whole aggregate is
            // attributed to injection and the serialized sum round-trips.
            net_vcs: opt_u64("net_vcs").unwrap_or(1) as u32,
            net_inject_wait_cycles: opt_u64("net_inject_wait_cycles")
                .unwrap_or(get_u64("net_contention_cycles")?),
            net_link_wait_cycles: opt_u64("net_link_wait_cycles").unwrap_or(0),
            net_vc_wait_cycles: match get("net_vc_wait_cycles") {
                Ok(v) => v
                    .as_array()
                    .ok_or("net_vc_wait_cycles is not an array")?
                    .iter()
                    .map(|w| w.as_u64().ok_or("net_vc_wait_cycles entry is not a u64"))
                    .collect::<Result<_, _>>()?,
                Err(_) => Vec::new(),
            },
            read_miss_latency: get_hist("read_miss_latency")?,
            write_miss_latency: get_hist("write_miss_latency")?,
            sharers_at_write: get_hist("sharers_at_write")?,
            metrics: parse_metrics(get("metrics")?)?,
        })
    }
}

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_str(out: &mut String, name: &str, value: &str) {
    let _ = write!(out, "\"{name}\":\"");
    json_escape(out, value);
    out.push_str("\",");
}

fn json_u64(out: &mut String, name: &str, value: u64) {
    let _ = write!(out, "\"{name}\":{value},");
}

/// Histograms serialize as exact moments plus the sparse non-zero log₂
/// buckets: `{"count":..,"sum":..,"min":..,"max":..,"buckets":[[b,n],..]}`.
fn json_hist(out: &mut String, name: &str, h: &Histogram) {
    let _ = write!(out, "\"{name}\":");
    json_hist_value(out, h);
    out.push(',');
}

/// The histogram object alone (for array elements).
fn json_hist_value(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.min(),
        h.max()
    );
    let mut first = true;
    for (b, &n) in h.buckets().iter().enumerate() {
        if n > 0 {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "[{b},{n}]");
            first = false;
        }
    }
    out.push_str("]}");
}

/// The metrics snapshot serializes as a nested object (see EXPERIMENTS.md
/// for the schema): sparse per-class entries `["label",count,bytes,to_dir]`
/// in enum order, four histograms, link-utilization scalars, queue-depth
/// histograms, and the busiest blocks as `[addr,messages]` pairs. All
/// values are integers, so the encoding is exact and byte-stable.
fn json_metrics(out: &mut String, name: &str, m: &MetricsSnapshot) {
    let _ = write!(out, "\"{name}\":{{\"classes\":[");
    let mut first = true;
    for class in MsgClass::ALL {
        let c = m.class(class);
        if c.count > 0 {
            if !first {
                out.push(',');
            }
            let _ = write!(
                out,
                "[\"{}\",{},{},{}]",
                class.label(),
                c.count,
                c.bytes,
                c.to_dir
            );
            first = false;
        }
    }
    out.push_str("],");
    json_hist(out, "read_tx_latency", &m.read_tx_latency);
    json_hist(out, "write_tx_latency", &m.write_tx_latency);
    json_hist(out, "inv_wave_depth", &m.inv_wave_depth);
    json_hist(out, "inv_wave_acks", &m.inv_wave_acks);
    json_u64(out, "links", m.links);
    json_u64(out, "max_link_busy", m.max_link_busy);
    json_u64(out, "total_link_busy", m.total_link_busy);
    json_hist(out, "inject_queue", &m.inject_queue);
    json_hist(out, "link_queue", &m.link_queue);
    // Per-VC queue-depth histograms exist only on multi-channel runs;
    // omitting the field keeps single-channel records byte-stable.
    if !m.vc_queue.is_empty() {
        out.push_str("\"vc_queue\":[");
        for (i, h) in m.vc_queue.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_hist_value(out, h);
        }
        out.push_str("],");
    }
    out.push_str("\"top_blocks\":[");
    for (i, (addr, msgs)) in m.top_blocks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{addr},{msgs}]");
    }
    out.push_str("]},");
}

fn parse_metrics(v: &json::Value) -> Result<MetricsSnapshot, String> {
    let obj = v.as_object().ok_or("metrics is not an object")?;
    let get = |name: &str| -> Result<&json::Value, String> {
        obj.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("metrics field {name} missing"))
    };
    let mut m = MetricsSnapshot::default();
    for entry in get("classes")?
        .as_array()
        .ok_or("classes is not an array")?
    {
        let e = entry.as_array().ok_or("class entry is not an array")?;
        let label = e
            .first()
            .and_then(json::Value::as_str)
            .ok_or("class entry has no label")?;
        let class = MsgClass::from_label(label)
            .ok_or_else(|| format!("unknown message class {label:?}"))?;
        let num = |i: usize| -> Result<u64, String> {
            e.get(i)
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("class {label} entry [{i}] is not a u64"))
        };
        m.classes[class.index()] = ClassCounts {
            count: num(1)?,
            bytes: num(2)?,
            to_dir: num(3)?,
        };
    }
    m.read_tx_latency = parse_hist(get("read_tx_latency")?)?;
    m.write_tx_latency = parse_hist(get("write_tx_latency")?)?;
    m.inv_wave_depth = parse_hist(get("inv_wave_depth")?)?;
    m.inv_wave_acks = parse_hist(get("inv_wave_acks")?)?;
    let scalar = |name: &str| -> Result<u64, String> {
        get(name)?
            .as_u64()
            .ok_or_else(|| format!("metrics field {name} is not a u64"))
    };
    m.links = scalar("links")?;
    m.max_link_busy = scalar("max_link_busy")?;
    m.total_link_busy = scalar("total_link_busy")?;
    m.inject_queue = parse_hist(get("inject_queue")?)?;
    m.link_queue = parse_hist(get("link_queue")?)?;
    if let Ok(v) = get("vc_queue") {
        for h in v.as_array().ok_or("vc_queue is not an array")? {
            m.vc_queue.push(parse_hist(h)?);
        }
    }
    for pair in get("top_blocks")?
        .as_array()
        .ok_or("top_blocks is not an array")?
    {
        let pair = pair.as_array().ok_or("top_blocks entry is not an array")?;
        match (
            pair.first().and_then(json::Value::as_u64),
            pair.get(1).and_then(json::Value::as_u64),
        ) {
            (Some(addr), Some(msgs)) => m.top_blocks.push((addr, msgs)),
            _ => return Err("top_blocks entry is not [addr, messages]".into()),
        }
    }
    Ok(m)
}

fn parse_hist(v: &json::Value) -> Result<Histogram, String> {
    let obj = v.as_object().ok_or("histogram is not an object")?;
    let field = |name: &str| -> Result<u64, String> {
        obj.iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_u64())
            .ok_or_else(|| format!("histogram field {name} missing or not a u64"))
    };
    let mut buckets = [0u64; 65];
    let pairs = obj
        .iter()
        .find(|(k, _)| k == "buckets")
        .and_then(|(_, v)| v.as_array())
        .ok_or("histogram buckets missing")?;
    for pair in pairs {
        let pair = pair.as_array().ok_or("bucket entry is not an array")?;
        let (b, n) = match (
            pair.first().and_then(json::Value::as_u64),
            pair.get(1).and_then(json::Value::as_u64),
        ) {
            (Some(b), Some(n)) => (b as usize, n),
            _ => return Err("bucket entry is not [index, count]".into()),
        };
        if b >= 65 {
            return Err(format!("bucket index {b} out of range"));
        }
        buckets[b] = n;
    }
    Ok(Histogram::from_parts(
        buckets,
        field("count")?,
        field("sum")?,
        field("min")?,
        field("max")?,
    ))
}

/// Minimal JSON parser — just enough for the records this module writes.
pub mod json {
    /// A parsed JSON value. Numbers keep their lexical form split into
    /// unsigned integers (the only numeric type the records use) and a
    /// float fallback.
    #[derive(Clone, Debug)]
    pub enum Value {
        Null,
        Bool(bool),
        U64(u64),
        F64(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::U64(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(v) => Some(v),
                _ => None,
            }
        }
    }

    pub fn parse(input: &str) -> Result<Value, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {pos}"))
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let name = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let value = parse_value(b, pos)?;
            fields.push((name, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                            *pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        }
                        _ => return Err(format!("bad escape \\{}", esc as char)),
                    }
                }
                c => {
                    // Re-decode multi-byte UTF-8 sequences.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = *pos - 1;
                        let len = match c {
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let slice = b
                            .get(start..start + len)
                            .ok_or("truncated UTF-8 sequence")?;
                        out.push_str(std::str::from_utf8(slice).map_err(|e| e.to_string())?);
                        *pos = start + len;
                    }
                }
            }
        }
        Err("unterminated string".into())
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
        if text.is_empty() {
            return Err(format!("expected a number at byte {start}"));
        }
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> SweepConfig {
        SweepConfig::new(
            MachineConfig::paper_default(8),
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            WorkloadKind::Floyd {
                vertices: 8,
                seed: 1996,
            },
        )
    }

    #[test]
    fn key_is_canonical_and_hash_is_stable() {
        let a = sample_config();
        let b = sample_config();
        assert_eq!(a.key(), b.key());
        assert_eq!(a.config_hash(), b.config_hash());
        let mut c = sample_config();
        c.machine.mem_latency = 6;
        assert_ne!(a.key(), c.key());
        assert_ne!(a.config_hash(), c.config_hash());
    }

    #[test]
    fn config_key_is_stable_and_sensitive() {
        let at = |machine: MachineConfig| SweepConfig {
            machine,
            ..sample_config()
        };
        let a = at(MachineConfig::paper_default(32));
        assert_eq!(
            a.config_hash(),
            at(MachineConfig::paper_default(32)).config_hash()
        );
        assert_ne!(
            a.config_hash(),
            at(MachineConfig::paper_default(16)).config_hash()
        );
        // The fields a machine-only hash is easy to forget: topology, the
        // local-delivery delay and the protocol ablation switches.
        let base = MachineConfig::paper_default(32);
        let mut torus = base;
        torus.topology = TopologyKind::KaryNcube { radix: 4 };
        let mut local = base;
        local.net.local_delay += 1;
        let mut flat = base;
        flat.protocol.dir_tree_pairing = false;
        let mut notify = base;
        notify.protocol.dir_tree_silent_replace = false;
        for m in [torus, local, flat, notify] {
            assert_ne!(a.config_hash(), at(m).config_hash(), "{}", at(m).key());
        }
    }

    #[test]
    fn vc_fields_extend_config_key_only_when_nondefault() {
        let a = sample_config();
        let mut b = sample_config();
        b.machine.net.vcs = 1; // explicit single channel == the pre-VC default
        assert_eq!(a.config_hash(), b.config_hash());
        b.machine.net.vcs = 3;
        assert_ne!(a.config_hash(), b.config_hash());
        let mut c = sample_config();
        c.machine.net.adaptive = true;
        assert_ne!(a.config_hash(), c.config_hash());
        let mut d = sample_config();
        d.machine.net.vc_credits = 1;
        assert_ne!(a.config_hash(), d.config_hash());
    }

    #[test]
    fn seed_zero_is_identity_nonzero_salts_floyd() {
        let base = sample_config();
        assert_eq!(base.effective_workload(), base.workload);
        let mut salted = sample_config();
        salted.seed = 3;
        assert_ne!(salted.effective_workload(), salted.workload);
        // And the salt only depends on the config, so it's reproducible.
        let mut again = sample_config();
        again.seed = 3;
        assert_eq!(salted.effective_workload(), again.effective_workload());
    }

    #[test]
    fn record_roundtrips_through_json() {
        use dirtree_machine::Machine;
        let config = sample_config();
        let mut machine = Machine::new(config.machine, config.protocol);
        let mut driver = config.effective_workload().build(config.machine.nodes);
        let outcome = dirtree_workloads::record_and_run(&mut machine, &mut driver);
        let record = RunRecord::from_outcome(&config, &outcome);
        let line = record.to_json();
        let parsed = RunRecord::from_json(&line).expect("parse");
        assert_eq!(parsed.to_json(), line, "roundtrip must be byte-identical");
        assert_eq!(parsed.cycles, record.cycles);
        assert_eq!(parsed.key, record.key);
        assert_eq!(
            parsed.write_miss_latency.mean(),
            record.write_miss_latency.mean()
        );
        assert_eq!(
            parsed.sharers_at_write.percentile(90.0),
            record.sharers_at_write.percentile(90.0)
        );
        // This crate builds the machine with the `trace` feature, so the
        // record's metrics are populated and agree with the message total.
        assert!(record.metrics.total_messages() > 0);
        assert_eq!(record.metrics.total_messages(), record.messages);
        assert!(line.contains("\"metrics\":{\"classes\":["));
        assert_eq!(
            parsed.metrics.total_messages(),
            record.metrics.total_messages()
        );
        assert_eq!(parsed.metrics.top_blocks, record.metrics.top_blocks);
        assert_eq!(
            parsed.metrics.inv_wave_depth.max(),
            record.metrics.inv_wave_depth.max()
        );
    }

    #[test]
    fn vc_key_segment_appears_only_when_nondefault() {
        let base = sample_config();
        assert!(!base.key().contains("|vc="));
        let mut explicit = sample_config();
        explicit.machine.net.vcs = 1; // == default
        assert_eq!(base.key(), explicit.key());
        let mut vc = sample_config();
        vc.machine.net.vcs = 3;
        vc.machine.net.adaptive = true;
        assert!(vc.key().ends_with("|vc={n=3,ad=1,cr=0}"), "{}", vc.key());
        assert_ne!(base.config_hash(), vc.config_hash());
    }

    #[test]
    fn vc_record_roundtrips_with_split_wait_and_per_vc_metrics() {
        use dirtree_machine::Machine;
        let mut config = sample_config();
        config.machine.net.vcs = 3;
        config.machine.net.adaptive = true;
        let mut machine = Machine::new(config.machine, config.protocol);
        let mut driver = config.effective_workload().build(config.machine.nodes);
        let outcome = dirtree_workloads::record_and_run(&mut machine, &mut driver);
        let record = RunRecord::from_outcome(&config, &outcome);
        assert_eq!(record.net_vcs, 3);
        assert_eq!(record.net_vc_wait_cycles.len(), 3);
        assert_eq!(
            record.net_vc_wait_cycles.iter().sum::<u64>(),
            record.net_contention_cycles(),
            "per-VC waits must partition the aggregate"
        );
        let line = record.to_json();
        assert!(line.contains("\"net_vcs\":3"));
        assert!(line.contains("\"net_inject_wait_cycles\":"));
        assert!(line.contains("\"vc_queue\":["));
        let parsed = RunRecord::from_json(&line).expect("parse");
        assert_eq!(parsed.to_json(), line, "roundtrip must be byte-identical");
        assert_eq!(parsed.net_inject_wait_cycles, record.net_inject_wait_cycles);
        assert_eq!(parsed.net_link_wait_cycles, record.net_link_wait_cycles);
        assert_eq!(parsed.net_vc_wait_cycles, record.net_vc_wait_cycles);
        assert_eq!(parsed.metrics.vc_queue.len(), record.metrics.vc_queue.len());
    }

    #[test]
    fn legacy_single_channel_records_parse_without_vc_fields() {
        use dirtree_machine::Machine;
        let config = sample_config();
        let mut machine = Machine::new(config.machine, config.protocol);
        let mut driver = config.effective_workload().build(config.machine.nodes);
        let outcome = dirtree_workloads::record_and_run(&mut machine, &mut driver);
        let record = RunRecord::from_outcome(&config, &outcome);
        let line = record.to_json();
        // Single-channel records keep the exact legacy shape: the
        // aggregate scalar, no VC fields.
        assert!(line.contains("\"net_contention_cycles\":"));
        assert!(!line.contains("net_vcs"));
        assert!(!line.contains("vc_queue"));
        let parsed = RunRecord::from_json(&line).expect("parse");
        assert_eq!(parsed.net_vcs, 1);
        assert_eq!(
            parsed.net_contention_cycles(),
            record.net_contention_cycles(),
            "the sum must survive the split being unrecoverable"
        );
        assert_eq!(parsed.to_json(), line, "roundtrip must be byte-identical");
    }

    #[test]
    fn json_escapes_roundtrip() {
        let v = json::parse(r#"{"a":"x\"y\\z\nw","b":[1,2],"c":3.5,"d":true}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].1.as_str(), Some("x\"y\\z\nw"));
        assert_eq!(obj[1].1.as_array().unwrap().len(), 2);
    }

    #[test]
    fn grid_spec_enumerates_cells_in_order() {
        let spec = SweepSpec::grid(
            "demo",
            WorkloadKind::Lu { n: 8 },
            &[4, 8],
            &[ProtocolKind::FullMap, ProtocolKind::Sci],
            MachineConfig::paper_default,
        );
        assert_eq!(spec.configs.len(), 4);
        assert_eq!(spec.configs[0].machine.nodes, 4);
        assert_eq!(spec.configs[3].protocol, ProtocolKind::Sci);
    }
}
