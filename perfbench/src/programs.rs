//! The benchmark's own SDVM programs, written with `AppBuilder`. Every
//! value a microthread sends is a `u64` slice whose last word is its send
//! time ([`now_ns`]), so each frame's wait can be measured where it runs.
//!
//! - `fan`: fork/join of sleeping tasks created on the launch site.
//! - `attract`: tasks reading and writing shared global objects.

use crate::record::{now_ns, span, Recorder};
use sdvm_core::{AppBuilder, ProgramHandle, Site};
use sdvm_types::{GlobalAddress, SchedulingHint, SdvmResult, SiteId, Value};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic generator for workload inputs (splitmix64).
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The splitmix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn stamped(words: &[u64]) -> Value {
    let mut v = words.to_vec();
    v.push(now_ns());
    Value::from_u64_slice(&v)
}

fn sleep_us(us: u64) {
    std::thread::sleep(Duration::from_micros(us));
}

fn sticky() -> SchedulingHint {
    SchedulingHint {
        sticky: true,
        ..Default::default()
    }
}

/// A program the client thread can launch: its code table and inputs.
pub trait Program {
    /// Launch one instance on `site`; `launch_span` is the id of the
    /// client's `site.launch` span the bootstrap's calls hang under.
    fn launch(&self, site: &Site, launch_span: u64) -> SdvmResult<ProgramHandle>;
    /// The result words every correct run returns.
    fn expected(&self) -> Vec<u64>;
    /// Total task sleep of one run (ms), for the ideal one-site time.
    fn total_sleep_ms(&self) -> f64;
    /// The task graph for `sdvm-sim` (node cost in µs of work), where the
    /// simulator models the program.
    fn sim_graph(&self) -> Option<sdvm_cdag::Cdag>;
}

/// Split a program's final value into its result words and the time the
/// value was sent.
pub fn decode_result(v: &Value) -> SdvmResult<(Vec<u64>, u64)> {
    let mut w = v.as_u64_slice()?;
    let sent = w.pop().unwrap_or(0);
    Ok((w, sent))
}

// ---------------------------------------------------------------- fan --

/// Fork/join: the bootstrap creates every task and the join on the launch
/// site; each task sleeps its seed-drawn time and sends 1 to the join.
pub struct Fan {
    app: AppBuilder,
    rec: Arc<Recorder>,
    sleeps_us: Arc<Vec<u64>>,
}

const FAN_TASK: u32 = 0;
const FAN_JOIN: u32 = 1;

impl Fan {
    /// `tasks` tasks sleeping 1–3 ms each, drawn from `seed`.
    pub fn new(rec: Arc<Recorder>, tasks: usize, seed: u64) -> Fan {
        let mut rng = Rng::new(seed);
        let sleeps_us = Arc::new((0..tasks).map(|_| rng.range(1_000, 3_000)).collect());
        let mut app = AppBuilder::new("perfbench-fan");
        let r = rec.clone();
        let task = app.thread("task", move |ctx| {
            let f = r.frame_begin(ctx)?;
            let p = ctx.param(0)?.as_u64_slice()?;
            sleep_us(p[0]);
            let join = ctx.target(0)?;
            let v = stamped(&[1]);
            r.child(&f, span::SEND, || ctx.send(join, p[1] as u32, v))?;
            r.frame_end(f);
            Ok(())
        });
        let r = rec.clone();
        let join = app.thread("join", move |ctx| {
            let f = r.frame_begin(ctx)?;
            let mut sum = 0;
            for i in 0..ctx.param_count() {
                sum += ctx.param(i as u32)?.as_u64_slice()?[0];
            }
            let result = ctx.target(0)?;
            let v = stamped(&[sum]);
            r.child(&f, span::SEND, || ctx.send(result, 0, v))?;
            r.frame_end(f);
            Ok(())
        });
        assert_eq!((task, join), (FAN_TASK, FAN_JOIN));
        Fan {
            app,
            rec,
            sleeps_us,
        }
    }
}

impl Program for Fan {
    fn launch(&self, site: &Site, launch_span: u64) -> SdvmResult<ProgramHandle> {
        let rec = &self.rec;
        let sleeps = &self.sleeps_us;
        site.launch(&self.app, |ctx, result| {
            let s = rec.launch_scope(ctx, launch_span);
            let n = sleeps.len();
            let join = rec.child(&s, span::CREATE, || {
                ctx.create_frame(FAN_JOIN, n, vec![result], sticky())
            });
            let tasks: Vec<GlobalAddress> = (0..n)
                .map(|_| {
                    rec.child(&s, span::CREATE, || {
                        ctx.create_frame(FAN_TASK, 1, vec![join], Default::default())
                    })
                })
                .collect();
            for (i, (t, us)) in tasks.iter().zip(sleeps.iter()).enumerate() {
                let v = stamped(&[*us, i as u64]);
                rec.child(&s, span::SEND, || ctx.send(*t, 0, v))?;
            }
            Ok(())
        })
    }

    fn expected(&self) -> Vec<u64> {
        vec![self.sleeps_us.len() as u64]
    }

    fn total_sleep_ms(&self) -> f64 {
        self.sleeps_us.iter().sum::<u64>() as f64 / 1e3
    }

    fn sim_graph(&self) -> Option<sdvm_cdag::Cdag> {
        let mut g = sdvm_cdag::Cdag::new();
        let join = g.add_node("join", FAN_JOIN, 1);
        for (i, us) in self.sleeps_us.iter().enumerate() {
            let t = g.add_node(format!("task{i}"), FAN_TASK, *us);
            g.add_edge(t, join, i as u32, 16).expect("fan edge");
        }
        Some(g)
    }
}

// ------------------------------------------------------------ attract --

/// Words in one shared object (16 KiB).
const OBJECT_WORDS: usize = 2048;
/// Accesses per write: one access in this many is an `ExecCtx::write`.
pub const ACCESSES_PER_WRITE: usize = 8;

/// Contents of object `obj` as written by task `writer` (`u64::MAX` for
/// the bootstrap): `[obj, writer, pattern...]`.
pub fn object_value(obj: u64, writer: u64) -> Value {
    let mut w = Vec::with_capacity(OBJECT_WORDS);
    w.push(obj);
    w.push(writer);
    let base = mix(obj << 32 ^ writer);
    w.extend((2..OBJECT_WORDS as u64).map(|j| base.wrapping_add(j)));
    Value::from_u64_slice(&w)
}

/// Whether `v` is an intact copy of object `obj` by any writer.
pub fn object_intact(v: &Value, obj: u64) -> bool {
    let bytes = v.bytes();
    if bytes.len() != OBJECT_WORDS * 8 {
        return false;
    }
    let mut words = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    let (Some(head), Some(writer)) = (words.next(), words.next()) else {
        return false;
    };
    let base = mix(obj << 32 ^ writer);
    head == obj && words.zip(2u64..).all(|(w, j)| w == base.wrapping_add(j))
}

/// What one verified access of object `obj` adds to a task's checksum.
pub fn access_weight(obj: u64) -> u64 {
    mix(obj + 1)
}

/// One task's accesses, in order: the object and whether it is written.
pub type Accesses = Vec<(u64, bool)>;

/// The seed-generated access list of `tasks` tasks over `objects`
/// objects: each task touches `per_task` distinct objects (a multiple of
/// [`ACCESSES_PER_WRITE`]), one in [`ACCESSES_PER_WRITE`] with a write at
/// a seeded position.
pub fn access_list(seed: u64, tasks: usize, objects: u64, per_task: usize) -> Vec<Accesses> {
    let mut rng = Rng::new(seed ^ 0xA77A_C7A7);
    (0..tasks)
        .map(|_| {
            let mut pool: Vec<u64> = (0..objects).collect();
            let mut acc: Accesses = (0..per_task)
                .map(|_| {
                    let i = rng.range(0, pool.len() as u64 - 1) as usize;
                    (pool.swap_remove(i), false)
                })
                .collect();
            for group in acc.chunks_mut(ACCESSES_PER_WRITE) {
                let at = rng.range(0, group.len() as u64 - 1) as usize;
                group[at].1 = true;
            }
            acc
        })
        .collect()
}

/// The join's expected sum: every access's weight, summed.
pub fn access_checksum(list: &[Accesses]) -> u64 {
    list.iter()
        .flatten()
        .fold(0u64, |acc, &(o, _)| acc.wrapping_add(access_weight(o)))
}

/// Tasks over shared objects: the bootstrap allocates the objects on the
/// launch site; each task sleeps, then reads and writes its objects in
/// order, verifying every read, and sends its checksum and its count of
/// reads that failed to verify to the join.
pub struct Attract {
    app: AppBuilder,
    rec: Arc<Recorder>,
    objects: u64,
    list: Arc<Vec<Accesses>>,
    expected: u64,
    sleep_us: u64,
}

const ATTRACT_TASK: u32 = 0;
const ATTRACT_JOIN: u32 = 1;

impl Attract {
    /// `tasks` tasks of `sleep_us_each`, each making `per_task` accesses
    /// over `objects` objects, drawn from `seed`.
    pub fn new(
        rec: Arc<Recorder>,
        tasks: usize,
        objects: u64,
        per_task: usize,
        sleep_us_each: u64,
        seed: u64,
    ) -> Attract {
        let list = Arc::new(access_list(seed, tasks, objects, per_task));
        let expected = access_checksum(&list);
        let mut app = AppBuilder::new("perfbench-attract");
        let r = rec.clone();
        // Parameter: [task, (obj, is_write, home, local) per access, sent].
        let task = app.thread("task", move |ctx| {
            let f = r.frame_begin(ctx)?;
            let p = ctx.param(0)?.as_u64_slice()?;
            let task = p[0];
            sleep_us(sleep_us_each);
            let (mut sum, mut bad) = (0u64, 0u64);
            for a in p[1..p.len() - 1].chunks_exact(4) {
                let (obj, addr) = (a[0], GlobalAddress::new(SiteId(a[2] as u32), a[3]));
                if a[1] == 1 {
                    let v = object_value(obj, task);
                    r.child(&f, span::WRITE, || ctx.write(addr, v))?;
                    sum = sum.wrapping_add(access_weight(obj));
                } else {
                    let v = r.child(&f, span::READ, || ctx.read(addr))?;
                    if object_intact(&v, obj) {
                        sum = sum.wrapping_add(access_weight(obj));
                    } else {
                        bad += 1;
                    }
                }
            }
            let join = ctx.target(0)?;
            let v = stamped(&[sum, bad]);
            r.child(&f, span::SEND, || ctx.send(join, task as u32, v))?;
            r.frame_end(f);
            Ok(())
        });
        let r = rec.clone();
        let join = app.thread("join", move |ctx| {
            let f = r.frame_begin(ctx)?;
            let (mut sum, mut bad) = (0u64, 0u64);
            for i in 0..ctx.param_count() {
                let w = ctx.param(i as u32)?.as_u64_slice()?;
                sum = sum.wrapping_add(w[0]);
                bad += w[1];
            }
            let result = ctx.target(0)?;
            let v = stamped(&[sum, bad]);
            r.child(&f, span::SEND, || ctx.send(result, 0, v))?;
            r.frame_end(f);
            Ok(())
        });
        assert_eq!((task, join), (ATTRACT_TASK, ATTRACT_JOIN));
        Attract {
            app,
            rec,
            objects,
            list,
            expected,
            sleep_us: sleep_us_each,
        }
    }
}

impl Program for Attract {
    fn launch(&self, site: &Site, launch_span: u64) -> SdvmResult<ProgramHandle> {
        let rec = &self.rec;
        let list = &self.list;
        let objects = self.objects;
        site.launch(&self.app, |ctx, result| {
            let s = rec.launch_scope(ctx, launch_span);
            let addrs: Vec<GlobalAddress> = (0..objects)
                .map(|o| ctx.alloc(object_value(o, u64::MAX)))
                .collect();
            let n = list.len();
            let join = rec.child(&s, span::CREATE, || {
                ctx.create_frame(ATTRACT_JOIN, n, vec![result], sticky())
            });
            for (i, acc) in list.iter().enumerate() {
                let t = rec.child(&s, span::CREATE, || {
                    ctx.create_frame(ATTRACT_TASK, 1, vec![join], Default::default())
                });
                let mut words = vec![i as u64];
                for &(o, write) in acc {
                    let addr = addrs[o as usize];
                    words.extend([o, u64::from(write), u64::from(addr.home.0), addr.local]);
                }
                let v = stamped(&words);
                rec.child(&s, span::SEND, || ctx.send(t, 0, v))?;
            }
            Ok(())
        })
    }

    fn expected(&self) -> Vec<u64> {
        // The checksum of every access, and no access that failed to
        // verify.
        vec![self.expected, 0]
    }

    fn total_sleep_ms(&self) -> f64 {
        self.list.len() as f64 * self.sleep_us as f64 / 1e3
    }

    fn sim_graph(&self) -> Option<sdvm_cdag::Cdag> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a = access_list(7, 50, 64, 16);
        let b = access_list(7, 50, 64, 16);
        assert_eq!(a, b);
        assert_eq!(access_checksum(&a), access_checksum(&b));
        assert_ne!(
            access_checksum(&a),
            access_checksum(&access_list(8, 50, 64, 16))
        );
        for acc in &a {
            let mut o: Vec<u64> = acc.iter().map(|x| x.0).collect();
            o.sort_unstable();
            o.dedup();
            assert_eq!(o.len(), 16, "objects of one task are distinct");
            let writes = acc.iter().filter(|x| x.1).count();
            assert_eq!(
                writes,
                16 / ACCESSES_PER_WRITE,
                "one access in eight writes"
            );
        }
    }

    #[test]
    fn objects_verify_by_index() {
        let v = object_value(3, 17);
        assert!(object_intact(&v, 3));
        assert!(!object_intact(&v, 4));
        assert!(object_intact(&object_value(3, u64::MAX), 3));
        let mut w = v.as_u64_slice().unwrap();
        w[100] ^= 1;
        assert!(!object_intact(&Value::from_u64_slice(&w), 3));
    }
}
