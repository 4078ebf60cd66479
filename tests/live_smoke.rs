//! Live-server smoke: the RESP server over the passthru/FDP stack at one
//! and four writer shards, driven by two concurrent connections that
//! pipeline 16-deep bursts of interleaved SET, GET, multi-key DEL and
//! EXISTS.
//!
//! Each connection owns its keys and keeps a model of them, so every
//! reply is checked against an exact expectation, in request order.
//! Because a GET is checked against the model state at its position in
//! the burst, a GET behind a SET of the same key checks read-your-writes
//! after that SET's ack. Afterwards the keyspace digest must survive a
//! kill and restart on the same device (every acked write is durable
//! under `appendfsync always`), and every modelled key must read back.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use slimio_server::resp::{self, Parser, Value};
use slimio_server::{bench, BackendKind, Server, ServerOpts, Store, StoreConfig};
use slimio_suite::imdb::LogPolicy;

const CONNS: u64 = 2;
const BURSTS: usize = 64;
const DEPTH: usize = 16;
const KEYS_PER_CONN: u64 = 24;

fn opts() -> ServerOpts {
    ServerOpts {
        policy: LogPolicy::Always,
        ..ServerOpts::default()
    }
}

fn send(port: u16, args: &[&[u8]]) -> Value {
    let args: Vec<Vec<u8>> = args.iter().map(|a| a.to_vec()).collect();
    bench::oneshot("127.0.0.1", port, &args).expect("oneshot")
}

fn digest(port: u16) -> Value {
    let d = send(port, &[b"DEBUG", b"DIGEST"]);
    assert!(matches!(d, Value::Bulk(_)), "DEBUG DIGEST -> {d:?}");
    d
}

/// A seeded 64-bit LCG.
struct Lcg(u64);

impl Lcg {
    /// The next draw, uniform enough in `0..n` for a test mix.
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// One connection's workload: builds bursts from a seeded LCG, checks
/// each reply against its key model, and returns the final model.
fn drive(port: u16, conn: u64) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut parser = Parser::new();
    let mut rbuf = vec![0u8; 64 << 10];
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut rng = Lcg(0x5EED + conn);
    let mut writes = 0u64;
    for burst in 0..BURSTS {
        let mut cmds: Vec<Vec<Vec<u8>>> = Vec::with_capacity(DEPTH);
        let mut expected: Vec<Value> = Vec::with_capacity(DEPTH);
        for _ in 0..DEPTH {
            let key = |rng: &mut Lcg| format!("c{conn}:k{}", rng.below(KEYS_PER_CONN)).into_bytes();
            match rng.below(20) {
                // SET: 40 %.
                0..=7 => {
                    let k = key(&mut rng);
                    writes += 1;
                    let v = format!("v{conn}-{writes}").into_bytes();
                    model.insert(k.clone(), v.clone());
                    cmds.push(vec![b"SET".to_vec(), k, v]);
                    expected.push(Value::ok());
                }
                // GET: 30 %.
                8..=13 => {
                    let k = key(&mut rng);
                    expected.push(match model.get(&k) {
                        Some(v) => Value::Bulk(v.clone()),
                        None => Value::Null,
                    });
                    cmds.push(vec![b"GET".to_vec(), k]);
                }
                // Multi-key DEL, 2-3 keys that may repeat: 15 %.
                14..=16 => {
                    let keys: Vec<Vec<u8>> = (0..2 + rng.below(2)).map(|_| key(&mut rng)).collect();
                    let removed = keys.iter().filter(|k| model.remove(*k).is_some()).count();
                    let mut cmd = vec![b"DEL".to_vec()];
                    cmd.extend(keys);
                    cmds.push(cmd);
                    expected.push(Value::Int(removed as i64));
                }
                // Multi-key EXISTS, 2-3 keys, repeats counted: 15 %.
                _ => {
                    let keys: Vec<Vec<u8>> = (0..2 + rng.below(2)).map(|_| key(&mut rng)).collect();
                    let found = keys.iter().filter(|k| model.contains_key(*k)).count();
                    let mut cmd = vec![b"EXISTS".to_vec()];
                    cmd.extend(keys);
                    cmds.push(cmd);
                    expected.push(Value::Int(found as i64));
                }
            }
        }
        let mut out = Vec::new();
        for c in &cmds {
            resp::encode_command(c, &mut out);
        }
        stream.write_all(&out).expect("send burst");
        for (i, want) in expected.iter().enumerate() {
            let got = bench::read_value(&mut stream, &mut parser, &mut rbuf).expect("reply");
            assert_eq!(
                &got,
                want,
                "conn {conn} burst {burst} cmd {i}: {:?}",
                cmds[i]
                    .iter()
                    .map(|a| String::from_utf8_lossy(a))
                    .collect::<Vec<_>>()
            );
        }
    }
    model
}

fn run(shards: usize) {
    let store = Store::new(StoreConfig {
        kind: BackendKind::Passthru,
        fdp: true,
        ratio: 1.0 / 128.0,
        shards,
    });
    let handle = Server::start(store, opts()).expect("start");
    let port = handle.port();
    let clients: Vec<_> = (0..CONNS)
        .map(|c| std::thread::spawn(move || drive(port, c)))
        .collect();
    let mut model = BTreeMap::new();
    for t in clients {
        model.extend(t.join().expect("client thread"));
    }
    assert!(!model.is_empty(), "the workload left no keys");
    let before = digest(port);

    let handle = Server::start(handle.kill(), opts()).expect("restart");
    let port = handle.port();
    assert_eq!(
        digest(port),
        before,
        "shards {shards}: digest changed across kill/restart"
    );
    for (k, v) in &model {
        assert_eq!(
            send(port, &[b"GET", k]),
            Value::Bulk(v.clone()),
            "shards {shards}: {} lost across kill/restart",
            String::from_utf8_lossy(k)
        );
    }
    handle.shutdown();
}

#[test]
fn one_shard_pipelined_mix_replies_in_order_and_recovers() {
    run(1);
}

#[test]
fn four_shards_pipelined_mix_replies_in_order_and_recovers() {
    run(4);
}
