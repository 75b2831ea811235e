// NOTE: with the vendored offline proptest stand-in, `proptest!` blocks
// compile away, leaving strategies/helpers unreferenced.
#![allow(dead_code, unused_imports)]

//! Property tests: the LSM engine must behave exactly like an ordered map
//! under any interleaving of puts, deletes, flushes, compactions and scans.

use bytes::Bytes;
use crdb_storage::{Lsm, LsmConfig, WriteBatch};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Batch(Vec<(u16, Option<u8>)>),
    Flush,
    Compact,
    Scan(u16, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 512, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        1 => prop::collection::vec((any::<u16>(), any::<Option<u8>>()), 1..8)
            .prop_map(|es| Op::Batch(es.into_iter().map(|(k, v)| (k % 512, v)).collect())),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Scan(a % 512, b % 512)),
    ]
}

fn key(k: u16) -> Bytes {
    Bytes::from(format!("k{k:05}"))
}

fn value(v: u8) -> Bytes {
    Bytes::from(format!("v{v:03}-{}", "pad".repeat(v as usize % 5)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lsm_matches_btreemap_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    lsm.put(key(k), value(v));
                    model.insert(key(k), value(v));
                }
                Op::Delete(k) => {
                    lsm.delete(key(k));
                    model.remove(&key(k));
                }
                Op::Batch(entries) => {
                    let mut b = WriteBatch::new();
                    for (k, v) in &entries {
                        match v {
                            Some(v) => { b.put(key(*k), value(*v)); }
                            None => { b.delete(key(*k)); }
                        }
                    }
                    lsm.apply(&b);
                    for (k, v) in entries {
                        match v {
                            Some(v) => { model.insert(key(k), value(v)); }
                            None => { model.remove(&key(k)); }
                        }
                    }
                }
                Op::Flush => { lsm.freeze_active(); lsm.settle(); }
                Op::Compact => { if let Some(job) = lsm.begin_job() { lsm.finish_job(job); } }
                Op::Scan(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got = lsm.scan(&key(lo), &key(hi), usize::MAX);
                    let want: Vec<(Bytes, Bytes)> = model
                        .range(key(lo)..key(hi))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        // Final full verification: every model key reads back, absent keys miss.
        for (k, v) in &model {
            let got = lsm.get(k);
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        let full = lsm.scan(b"", b"z", usize::MAX);
        prop_assert_eq!(full.len(), model.len());
    }
}
