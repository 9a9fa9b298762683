//! Write your own workload against the public API: a simple parallel
//! histogram with locks. Its threads run once, in the recorder, which
//! checks that the program is data-race-free; the recorded op streams are
//! then replayed under two protocols.
//!
//! Run: `cargo run --example custom_workload`

use dirtree::analysis::experiments::replay;
use dirtree::machine::MachineConfig;
use dirtree::prelude::*;
use dirtree::workloads::layout::Alloc;
use dirtree::workloads::record_ops;
use dirtree::workloads::rendezvous::{AppFn, ThreadedWorkload};
use std::sync::Arc;

fn histogram_workload(nprocs: u32) -> ThreadedWorkload {
    let mut alloc = Alloc::new();
    let input = alloc.array(256); // shared input vector
    let hist = alloc.array(16); // shared histogram (lock-protected bins)
    ThreadedWorkload::new(nprocs, alloc.used(), move |tid| {
        let program: AppFn = Box::new(move |env| {
            // Processor 0 publishes the input.
            if tid == 0 {
                let mut rng = SimRng::new(2026);
                for i in 0..input.len {
                    env.write(input.at(i), rng.gen_range(16));
                }
                for b in 0..hist.len {
                    env.write(hist.at(b), 0);
                }
            }
            env.barrier();
            // Each processor bins its slice of the input.
            let per = input.len / nprocs as u64;
            let lo = tid as u64 * per;
            let hi = if tid as u32 + 1 == nprocs {
                input.len
            } else {
                lo + per
            };
            for i in lo..hi {
                let v = env.read(input.at(i));
                let bin = v % hist.len;
                env.lock(bin as u32);
                let count = env.read(hist.at(bin));
                env.write(hist.at(bin), count + 1);
                env.unlock(bin as u32);
            }
            env.barrier();
        });
        program
    })
}

fn main() {
    let mut workload = histogram_workload(8);
    let trace = Arc::new(record_ops(&mut workload));
    let total: u64 = (0..16).map(|b| workload.value_at(256 + b)).sum();
    assert_eq!(total, 256, "every input element must be counted once");
    for protocol in [
        ProtocolKind::FullMap,
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        },
    ] {
        let mut config = MachineConfig::paper_default(8);
        config.verify = true;
        let out = replay(&config, protocol, &trace);
        println!(
            "{:<12} cycles={:<8} msgs={:<6} lock acquisitions={}  (histogram total = {total})",
            protocol.name(),
            out.cycles,
            out.stats.critical_messages(),
            out.stats.lock_acquires,
        );
    }
}
