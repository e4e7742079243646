//! Format freeze: the exact bytes the store writes for each WAL record
//! kind, a two-rule checkpoint and the epoch file. Round-trip tests cannot
//! catch a change that the encoder and the decoder make together; these
//! pins can. Everything goes through the public durable API, so the bytes
//! are the ones a running store puts on disk. A deliberate format change
//! updates the pins and `PROTO_VERSION` / the checkpoint magic with it.

use std::sync::Arc;

use rulekit_core::{Provenance, RuleMeta, RuleParser};
use rulekit_data::Taxonomy;
use rulekit_store::checkpoint::checkpoint_name;
use rulekit_store::{wal, DurableConfig, DurableRepository, MemStorage, Storage, WAL_NAME};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A pinned byte string, written as space-separated hex fields.
fn pin(fields: &str) -> String {
    fields.split_whitespace().collect()
}

/// Each record of a WAL image, as the hex of its whole frame.
fn frames(bytes: &[u8]) -> Vec<String> {
    let scan = wal::scan(bytes);
    assert!(scan.stop_reason.is_none(), "{:?}", scan.stop_reason);
    let mut ends = scan.record_starts[1..].to_vec();
    ends.push(scan.valid_len);
    scan.record_starts.iter().zip(ends).map(|(&s, e)| hex(&bytes[s as usize..e as usize])).collect()
}

#[test]
fn wal_checkpoint_and_epoch_bytes_are_frozen() {
    let storage = Arc::new(MemStorage::new());
    let config = DurableConfig { checkpoint_every: 0, ..DurableConfig::default() };
    let durable = DurableRepository::open(
        Arc::clone(&storage) as Arc<dyn Storage>,
        RuleParser::new(Taxonomy::builtin()),
        config,
    )
    .unwrap();
    let miner = RuleMeta {
        author: "miner".into(),
        provenance: Provenance::Crowd,
        confidence: 0.75,
        ..RuleMeta::default()
    };
    let a = durable.add_rules("rings? -> rings", &RuleMeta::default()).unwrap()[0];
    let b = durable.add_rules("rugs? -> area rugs", &miner).unwrap()[0];
    durable.disable(b, "drift").unwrap();
    durable.enable(b).unwrap();
    durable.disable(b, "x").unwrap();
    let logged = frames(&storage.read(WAL_NAME).unwrap());
    durable.checkpoint().unwrap();
    durable.remove(a, "subsumed").unwrap();
    let removed = frames(&storage.read(WAL_NAME).unwrap());
    durable.bump_epoch().unwrap();
    durable.bump_epoch().unwrap();

    // [len u32][crc32 u32] + payload [revision u64][kind u8][fields]; an
    // Add's fields are the rule image [id u64][source][author]
    // [provenance u8][status u8][confidence f64][added_at u64].
    let add_a = pin("41000000 b8500887 0100000000000000 01 0000000000000000 \
                     0f000000 72696e67733f202d3e2072696e6773 07000000 616e616c797374 00 00 \
                     000000000000f03f 0000000000000000");
    let add_b = pin("42000000 f6a00064 0200000000000000 01 0100000000000000 \
                     12000000 727567733f202d3e20617265612072756773 05000000 6d696e6572 04 00 \
                     000000000000e83f 0100000000000000");
    let disable = pin("1a000000 7486131b 0300000000000000 02 0100000000000000 05000000 6472696674");
    let enable = pin("11000000 29eac04f 0400000000000000 03 0100000000000000");
    let disable_x = pin("16000000 b68be6bc 0500000000000000 02 0100000000000000 01000000 78");
    let remove = pin("1d000000 3508baa7 0600000000000000 04 0000000000000000 \
                      08000000 73756273756d6564");
    assert_eq!(logged, [add_a, add_b, disable, enable, disable_x]);
    assert_eq!(removed, [remove]);

    // [crc32 u32] + payload ["RKCP1"][revision u64][next_id u64][count u32]
    // and the rule images.
    let checkpoint = pin("a4174e92 524b435031 0500000000000000 0200000000000000 02000000 \
         0000000000000000 0f000000 72696e67733f202d3e2072696e6773 07000000 616e616c797374 \
         00 00 000000000000f03f 0000000000000000 \
         0100000000000000 12000000 727567733f202d3e20617265612072756773 05000000 6d696e6572 \
         04 01 000000000000e83f 0100000000000000");
    assert_eq!(hex(&storage.read(&checkpoint_name(5)).unwrap()), checkpoint);

    // [crc32 u32][epoch u64].
    let epoch = storage.read(rulekit_store::durable::EPOCH_NAME).unwrap();
    assert_eq!(hex(&epoch), pin("14d80727 0200000000000000"));
}
