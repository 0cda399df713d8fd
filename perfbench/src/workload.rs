//! Seeded generation of the three workloads' request streams.
//!
//! Everything here is a pure function of `(workload, seed)`: the request
//! lines each connection sends during set-up and during the timed phase,
//! and, for `execute` requests, the concrete inputs and the reference
//! answer from the standard evaluator on the *source* program. Nothing
//! that depends on machine speed enters a request (no deadlines), so the
//! same seed always produces byte-identical traffic.
//!
//! Generation respects limits found while probing the service:
//!
//! - interpreter projections (E8) use the `contents` facet and an unfold
//!   budget of `4·ops + 64`; with `sign` and default budgets a single
//!   projection ran to fuel exhaustion;
//! - `execute` recursion stays under the evaluator's 200-frame default
//!   depth, which the wire cannot raise, so matcher subjects are at most
//!   120 characters;
//! - `power` bases stay in `[-2, 2]` (no i64 overflow);
//! - `iprod` vectors are floats (dyadic, so every sum is exact).

use std::collections::HashSet;
use std::sync::Arc;

use ppe_lang::{parse_program, Evaluator, Value};
use ppe_server::{EngineContext, Json, ServiceConfig, SpecializeRequest, SpecializeService};

/// The corpus: every source program a workload draws from.
pub const POWER: &str = include_str!("../../examples/programs/power.sexp");
pub const ABS_SCALE: &str = include_str!("../../examples/programs/abs-scale.sexp");
pub const EVEN_ODD: &str = include_str!("../../examples/programs/even-odd.sexp");
pub const IPROD: &str = include_str!("../../examples/programs/iprod.sexp");

/// Figure 7 of the paper: the inner product.
pub const IPROD_FIG7: &str = "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
     (define (dotprod a b n)
       (if (= n 0) 0.0
           (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))";

/// The naive string matcher (`examples/string_match.rs`): the scan
/// position is a parameter so specialization folds the loop.
pub const MATCHER: &str = "(define (match p s k)
       (if (> (+ k (vsize p)) (+ (vsize s) 1))
           0
           (if (cmp p s k 1) k (match p s (+ k 1)))))
     (define (cmp p s k i)
       (if (> i (vsize p))
           #t
           (if (= (vref p i) (vref s (+ k (- i 1))))
               (cmp p s k (+ i 1))
               #f)))";

/// The stack-machine interpreter of E8: 1 = push constant, 2 = add,
/// 3 = mul, 4 = push the input `x`, anything else halts.
pub const INTERPRETER: &str = "(define (run code x) (exec code x (mkvec 8) 0 1))
     (define (exec code x stack sp pc)
       (let ((op (vref code pc)))
         (if (= op 1)
             (exec code x (updvec stack (+ sp 1) (vref code (+ pc 1))) (+ sp 1) (+ pc 2))
         (if (= op 2)
             (exec code x
                   (updvec stack (- sp 1) (+ (vref stack (- sp 1)) (vref stack sp)))
                   (- sp 1) (+ pc 1))
         (if (= op 3)
             (exec code x
                   (updvec stack (- sp 1) (* (vref stack (- sp 1)) (vref stack sp)))
                   (- sp 1) (+ pc 1))
         (if (= op 4)
             (exec code x (updvec stack (+ sp 1) x) (+ sp 1) (+ pc 1))
             (vref stack sp)))))))";

/// A sign-guarded iteration kernel (E5's `SIGN_KERNEL`).
pub const SIGN_KERNEL: &str = "(define (kernel x steps)
       (if (= steps 0) x (kernel (step x) (- steps 1))))
     (define (step x)
       (if (< x 0) (neg x) (+ x 1)))";

/// An accumulating sum with a static counter.
pub const SUM_TO: &str = "(define (sum-to n acc) (if (= n 0) acc (sum-to (- n 1) (+ acc n))))";

/// E5's facet products, widest first.
const E5_FACETS: [&str; 4] = ["sign", "parity", "range", "size"];

/// Default fuel of `PeConfig`; cold requests add a per-request serial so
/// no two keys coincide (fuel only caps work, so residuals are unchanged).
const BASE_FUEL: u64 = 20_000_000;

/// Requests per connection that `residual_bytes_mean` is taken over in
/// `cold_specialize` (50 rounds of its family schedule); cyclic workloads
/// use one whole cycle of their stream. The measured phase continues past
/// its deadline until each connection has answered this many, so the mean
/// is exact for a seed.
pub const MEAN_PREFIX: usize = 1000;

/// A splitmix64 stream: tiny, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// The static shape of one specialization: which program, and what is
/// known about each of its inputs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Shape {
    /// `power x n`, `n` static; `sign` refines `x` when set.
    Power { n: i64, sign: Option<Sign> },
    /// `abs-scale x k`, `k` static, the sign of `x` known.
    AbsScale { k: i64, sign: Sign },
    /// `even n`, fully static.
    EvenOdd { n: i64 },
    /// `iprod a b` over two vectors of static size `n`.
    Iprod { n: i64, fig7: bool },
    /// `match p s k` with the pattern `p` static.
    Match { pattern: Vec<i64> },
    /// `run code x` with the bytecode static.
    Interp { code: Vec<i64> },
    /// `kernel x steps`, `steps` static; `sign` refines `x` when set.
    Kernel { steps: i64, sign: Option<Sign> },
    /// `sum-to n acc`, `n` static.
    SumTo { n: i64 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sign {
    Pos,
    Neg,
}

impl Sign {
    fn name(self) -> &'static str {
        match self {
            Sign::Pos => "pos",
            Sign::Neg => "neg",
        }
    }

    /// A concrete integer of this sign with magnitude in `1..=max`.
    fn draw(self, rng: &mut Rng, max: i64) -> i64 {
        let m = rng.range(1, max);
        match self {
            Sign::Pos => m,
            Sign::Neg => -m,
        }
    }
}

/// One specialization request, minus any `execute` inputs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Spec {
    pub shape: Shape,
    pub engine: &'static str,
    pub facets: Vec<&'static str>,
    pub optimize: bool,
    /// Extra fuel on top of the default (cold requests: a unique serial).
    pub fuel_serial: u64,
}

fn dyn_sign(sign: Option<Sign>) -> String {
    match sign {
        Some(s) => format!("_:sign={}", s.name()),
        None => "_".to_owned(),
    }
}

fn vec_spec(xs: &[i64]) -> String {
    let items: Vec<String> = xs.iter().map(i64::to_string).collect();
    format!("vec:{}", items.join(","))
}

fn int_vec(xs: &[i64]) -> Value {
    Value::vector(xs.iter().map(|&x| Value::Int(x)).collect())
}

/// A float vector of length `n` with dyadic entries in `[-2, 2]`.
fn float_vec(rng: &mut Rng, n: i64) -> (Value, String) {
    let xs: Vec<f64> = (0..n).map(|_| rng.range(-16, 16) as f64 / 8.0).collect();
    let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    (
        Value::vector(xs.into_iter().map(Value::Float).collect()),
        format!("vec:{}", items.join(",")),
    )
}

impl Shape {
    pub fn source(&self) -> &'static str {
        match self {
            Shape::Power { .. } => POWER,
            Shape::AbsScale { .. } => ABS_SCALE,
            Shape::EvenOdd { .. } => EVEN_ODD,
            Shape::Iprod { fig7: false, .. } => IPROD,
            Shape::Iprod { fig7: true, .. } => IPROD_FIG7,
            Shape::Match { .. } => MATCHER,
            Shape::Interp { .. } => INTERPRETER,
            Shape::Kernel { .. } => SIGN_KERNEL,
            Shape::SumTo { .. } => SUM_TO,
        }
    }

    #[cfg(test)]
    fn family(&self) -> &'static str {
        match self {
            Shape::Power { .. } => "power",
            Shape::AbsScale { .. } => "abs-scale",
            Shape::EvenOdd { .. } => "even-odd",
            Shape::Iprod { fig7: false, .. } => "iprod",
            Shape::Iprod { fig7: true, .. } => "iprod-fig7",
            Shape::Match { .. } => "match",
            Shape::Interp { .. } => "interp",
            Shape::Kernel { .. } => "kernel",
            Shape::SumTo { .. } => "sum-to",
        }
    }

    /// The wire input specs, one per source-entry parameter.
    pub fn inputs(&self) -> Vec<String> {
        match self {
            Shape::Power { n, sign } => vec![dyn_sign(*sign), n.to_string()],
            Shape::AbsScale { k, sign } => vec![dyn_sign(Some(*sign)), k.to_string()],
            Shape::EvenOdd { n } => vec![n.to_string()],
            Shape::Iprod { n, .. } => vec![format!("_:size={n}"), format!("_:size={n}")],
            Shape::Match { pattern } => vec![vec_spec(pattern), "_".into(), "_".into()],
            Shape::Interp { code } => vec![vec_spec(code), "_".into()],
            Shape::Kernel { steps, sign } => vec![dyn_sign(*sign), steps.to_string()],
            Shape::SumTo { n } => vec![n.to_string(), "_".into()],
        }
    }

    /// The static recursion this shape unfolds, which sets its budget.
    fn unfold_need(&self) -> u32 {
        let n = match self {
            Shape::Power { n, .. } | Shape::EvenOdd { n } | Shape::SumTo { n } => *n,
            Shape::Iprod { n, .. } => *n,
            Shape::Kernel { steps, .. } => *steps,
            Shape::AbsScale { .. } | Shape::Match { .. } => 0,
            Shape::Interp { code } => 4 * code.len() as i64,
        };
        u32::try_from(n).expect("static counters are small") + 64
    }

    /// Concrete values for every source-entry parameter, consistent with
    /// the static ones and with every refinement, plus their wire form.
    pub fn concrete(&self, rng: &mut Rng) -> Vec<(Value, String)> {
        let int = |x: i64| (Value::Int(x), x.to_string());
        let signed = |rng: &mut Rng, sign: Option<Sign>, max: i64| match sign {
            Some(s) => s.draw(rng, max),
            None => rng.range(-max, max),
        };
        match self {
            Shape::Power { n, sign } => vec![int(signed(rng, *sign, 2)), int(*n)],
            Shape::AbsScale { k, sign } => vec![int(sign.draw(rng, 1000)), int(*k)],
            Shape::EvenOdd { n } => vec![int(*n)],
            Shape::Iprod { n, .. } => vec![float_vec(rng, *n), float_vec(rng, *n)],
            Shape::Match { pattern } => {
                let len = rng.range(100, 120);
                let subject: Vec<i64> = (0..len).map(|_| 97 + rng.range(0, 2)).collect();
                vec![
                    (int_vec(pattern), vec_spec(pattern)),
                    (int_vec(&subject), vec_spec(&subject)),
                    int(rng.range(1, 4)),
                ]
            }
            Shape::Interp { code } => vec![(int_vec(code), vec_spec(code)), int(rng.range(-3, 3))],
            Shape::Kernel { steps, sign } => vec![int(signed(rng, *sign, 50)), int(*steps)],
            Shape::SumTo { n } => vec![int(*n), int(rng.range(-100, 100))],
        }
    }

    /// The source entry's parameter names, in order.
    pub fn params(&self) -> &'static [&'static str] {
        match self {
            Shape::Power { .. } => &["x", "n"],
            Shape::AbsScale { .. } => &["x", "k"],
            Shape::EvenOdd { .. } => &["n"],
            Shape::Iprod { .. } => &["a", "b"],
            Shape::Match { .. } => &["p", "s", "k"],
            Shape::Interp { .. } => &["code", "x"],
            Shape::Kernel { .. } => &["x", "steps"],
            Shape::SumTo { .. } => &["n", "acc"],
        }
    }
}

/// JSON string literal for `s`.
fn jstr(s: &str) -> String {
    Json::str(s).render()
}

impl Spec {
    /// The request line, optionally asking to execute the residual on
    /// `execute` (wire value strings in residual-parameter order).
    pub fn line(&self, execute: Option<&[String]>) -> String {
        let mut fields: Vec<(&str, String)> = vec![
            ("program", jstr(self.shape.source())),
            (
                "inputs",
                format!(
                    "[{}]",
                    self.shape
                        .inputs()
                        .iter()
                        .map(|s| jstr(s))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            ),
            (
                "facets",
                format!(
                    "[{}]",
                    self.facets
                        .iter()
                        .map(|s| jstr(s))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            ),
            ("engine", jstr(self.engine)),
            ("max_unfold_depth", self.shape.unfold_need().to_string()),
        ];
        if self.optimize {
            fields.push(("optimize", "true".into()));
        }
        if self.fuel_serial > 0 {
            fields.push(("fuel", (BASE_FUEL + self.fuel_serial).to_string()));
        }
        if let Some(args) = execute {
            fields.push((
                "execute",
                format!(
                    "[{}]",
                    args.iter().map(|s| jstr(s)).collect::<Vec<_>>().join(",")
                ),
            ));
        }
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", jstr(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// What the client checks a response against.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A specialization: its residual is checked after the clock stops
    /// (Theorem 1 on seeded inputs).
    Residual,
    /// An execution: the standard evaluator's answer on the source.
    Value(String),
}

/// One request as a connection sends it.
#[derive(Clone, Debug)]
pub struct Req {
    pub line: Arc<str>,
    /// Index into [`Workload::specs`].
    pub spec: usize,
    pub expect: Expect,
}

/// A generated workload: the traffic of every connection.
#[derive(Debug)]
pub struct Workload {
    pub conns: usize,
    pub specs: Vec<Spec>,
    /// Set-up requests per connection, sent connection by connection
    /// (all of connection 0 first) before the clock starts.
    pub warmup: Vec<Vec<Req>>,
    /// Timed-phase requests per connection; cyclic workloads wrap.
    pub stream: Vec<Vec<Req>>,
    /// Whether the stream may wrap (`cold_specialize` never repeats a key).
    pub cyclic: bool,
    /// Connection 0's requests per measurement slice: whole rounds of the
    /// stream's mix, a tenth to a fifth of a second on a 2-vCPU host.
    pub window: usize,
}

impl Workload {
    /// The stream prefix `residual_bytes_mean` covers on connection `c`.
    pub fn mean_prefix(&self, c: usize) -> usize {
        if self.cyclic {
            self.stream[c].len()
        } else {
            MEAN_PREFIX.min(self.stream[c].len())
        }
    }
}

pub const WORKLOADS: [&str; 3] = ["warm_hit", "cold_specialize", "execute_zipf"];

/// Builds workload `name` at `seed`; `timed` is the longest timed stream a
/// connection may need (cold requests never repeat, so that stream is
/// generated at full length).
pub fn generate(name: &str, seed: u64, timed: usize) -> Result<Workload, String> {
    match name {
        "warm_hit" => Ok(warm_hit(seed)),
        "cold_specialize" => Ok(cold(seed, timed)),
        "execute_zipf" => zipf(seed),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn pattern(rng: &mut Rng) -> Vec<i64> {
    let len = rng.range(2, 5);
    (0..len).map(|_| 97 + rng.range(0, 2)).collect()
}

fn bytecode(rng: &mut Rng, ops: i64) -> Vec<i64> {
    // LOAD x; then (PUSH k; ADD | LOAD; MUL)*; HALT, as E8 builds it, with
    // seeded constants and order. Stack depth stays at most 2.
    let mut code = vec![4];
    for _ in 0..ops {
        if rng.coin() {
            code.extend([1, rng.range(1, 9), 2]);
        } else {
            code.extend([4, 3]);
        }
    }
    code.push(5);
    code
}

fn e5_facets(rng: &mut Rng) -> Vec<&'static str> {
    E5_FACETS[..rng.range(2, 4) as usize].to_vec()
}

fn maybe_sign(rng: &mut Rng) -> Option<Sign> {
    match rng.below(3) {
        0 => Some(Sign::Pos),
        1 => Some(Sign::Neg),
        _ => None,
    }
}

/// The probe each connection ends its set-up with: one `execute` of
/// `power` at `n = 5`, checked against the evaluator on the source, so
/// every run proves the deployed binary's execute path before timing.
fn probe(specs: &mut Vec<Spec>) -> Req {
    let spec = Spec {
        shape: Shape::Power { n: 5, sign: None },
        engine: "online",
        facets: vec!["sign", "parity"],
        optimize: false,
        fuel_serial: 0,
    };
    let line = spec.line(Some(&["2".to_owned()]));
    specs.push(spec);
    Req {
        line: line.into(),
        spec: specs.len() - 1,
        expect: Expect::Value("32".into()),
    }
}

/// The warm_hit hot set: 64 distinct specializations, the same for every
/// seed, spanning `examples/programs/*.sexp`, Figure 7 `iprod`, `power`
/// and the matcher over all three engines, half of them optimized.
pub fn hot_set() -> Vec<Spec> {
    let mut rng = Rng::new(0x5EED_4074, 0);
    let mut seen = HashSet::new();
    let mut specs = Vec::new();
    while specs.len() < 64 {
        let i = specs.len();
        let (shape, engine, facets) = match i % 8 {
            0 => (
                Shape::Power {
                    n: rng.range(2, 24),
                    sign: None,
                },
                ["online", "simple", "offline"][rng.below(3)],
                vec!["sign", "parity"],
            ),
            1 => (
                Shape::AbsScale {
                    k: rng.range(-20, 20),
                    sign: if rng.coin() { Sign::Pos } else { Sign::Neg },
                },
                ["online", "offline"][rng.below(2)],
                vec!["sign"],
            ),
            2 => (
                Shape::EvenOdd {
                    n: rng.range(0, 40),
                },
                ["online", "simple"][rng.below(2)],
                vec!["sign", "parity"],
            ),
            3 | 4 => (
                Shape::Iprod {
                    n: rng.range(1, 16),
                    fig7: i % 8 == 4,
                },
                ["online", "offline"][rng.below(2)],
                vec!["size"],
            ),
            5 | 6 => (
                Shape::Match {
                    pattern: pattern(&mut rng),
                },
                "online",
                vec!["contents"],
            ),
            _ => (
                Shape::Power {
                    n: rng.range(2, 24),
                    sign: Some(Sign::Pos),
                },
                ["online", "offline"][rng.below(2)],
                e5_facets(&mut rng),
            ),
        };
        let spec = Spec {
            shape,
            engine,
            facets,
            optimize: i % 2 == 1,
            fuel_serial: 0,
        };
        if seen.insert(spec.clone()) {
            specs.push(spec);
        }
    }
    specs
}

/// A seeded Fisher–Yates shuffle.
fn shuffled<T>(rng: &mut Rng, mut v: Vec<T>) -> Vec<T> {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

fn warm_hit(seed: u64) -> Workload {
    const ROUNDS: usize = 64;
    let mut specs = hot_set();
    let hot = specs.len();
    let residual = |spec: usize, specs: &[Spec]| Req {
        line: specs[spec].line(None).into(),
        spec,
        expect: Expect::Residual,
    };
    let mut warm: Vec<Req> = (0..hot).map(|i| residual(i, &specs)).collect();
    warm.push(probe(&mut specs));
    // Rounds of seeded permutations: every hot key equally often, in a
    // different order per seed.
    let mut rng = Rng::new(seed, 1);
    let stream = (0..ROUNDS)
        .flat_map(|_| shuffled(&mut rng, (0..hot).collect()))
        .map(|i| residual(i, &specs))
        .collect();
    Workload {
        conns: 1,
        specs,
        warmup: vec![warm],
        stream: vec![stream],
        cyclic: true,
        window: ROUNDS * hot,
    }
}

/// The cold family schedule: request `i` draws from slot
/// `COLD_SLOTS[i % 20]`, so every window of 20 requests has the same mix
/// (interpreter 4, `iprod` 4, matcher 3, `power`/`sum-to`/`kernel` 9), with
/// the heavy families spread out. Only parameters are seeded.
const COLD_SLOTS: [usize; 20] = [
    0, 11, 4, 8, 14, 1, 17, 5, 12, 9, 2, 15, 6, 18, 10, 3, 13, 7, 16, 19,
];

/// Cold request `i`: E8 projections, Figure 7 `iprod` (online and
/// offline), the matcher, and `power`/`sum-to`/`kernel` through `simple`
/// and through 2–4-facet products; every other round optimized.
fn cold_spec(rng: &mut Rng, i: usize, serial: u64) -> Spec {
    let slot = COLD_SLOTS[i % COLD_SLOTS.len()];
    let (shape, engine, facets) = match slot {
        0..=3 => (
            Shape::Interp {
                code: {
                    let ops = rng.range(4, 16);
                    bytecode(rng, ops)
                },
            },
            "online",
            vec!["contents"],
        ),
        4..=7 => (
            Shape::Iprod {
                n: rng.range(1, 32),
                fig7: true,
            },
            if slot.is_multiple_of(2) {
                "online"
            } else {
                "offline"
            },
            vec!["size"],
        ),
        8..=10 => (
            Shape::Match {
                pattern: pattern(rng),
            },
            "online",
            vec!["contents"],
        ),
        _ => {
            let shape = match (slot - 11) % 3 {
                0 => Shape::Power {
                    n: rng.range(1, 40),
                    sign: maybe_sign(rng),
                },
                1 => Shape::SumTo {
                    n: rng.range(1, 40),
                },
                _ => Shape::Kernel {
                    steps: rng.range(1, 24),
                    sign: maybe_sign(rng),
                },
            };
            let engine = if slot < 14 { "simple" } else { "online" };
            (shape, engine, e5_facets(rng))
        }
    };
    Spec {
        shape,
        engine,
        facets,
        optimize: (i / COLD_SLOTS.len()) % 2 == 1,
        fuel_serial: serial,
    }
}

fn cold(seed: u64, timed: usize) -> Workload {
    const WARMUP: usize = 100;
    let mut rng = Rng::new(seed, 0xC01D);
    let mut specs = Vec::new();
    let mut serial = 0u64;
    let mut next = |specs: &mut Vec<Spec>, rng: &mut Rng| {
        let spec = cold_spec(rng, serial as usize, serial + 1);
        serial += 1;
        let line = spec.line(None);
        specs.push(spec);
        Req {
            line: line.into(),
            spec: specs.len() - 1,
            expect: Expect::Residual,
        }
    };
    let mut warm: Vec<Req> = (0..WARMUP).map(|_| next(&mut specs, &mut rng)).collect();
    warm.push(probe(&mut specs));
    let stream: Vec<Req> = (0..timed.max(MEAN_PREFIX))
        .map(|_| next(&mut specs, &mut rng))
        .collect();
    Workload {
        conns: 1,
        specs,
        warmup: vec![warm],
        stream: vec![stream],
        cyclic: false,
        window: 8 * 2 * COLD_SLOTS.len(),
    }
}

/// The zipf working set: 200 distinct specializations over every family
/// with an executable residual, in popularity order.
fn zipf_specs(rng: &mut Rng) -> Vec<Spec> {
    let mut seen = HashSet::new();
    let mut specs = Vec::new();
    while specs.len() < 200 {
        let i = specs.len();
        let (shape, engine, facets) = match i % 10 {
            0 | 1 => (
                Shape::Power {
                    n: rng.range(1, 40),
                    sign: maybe_sign(rng),
                },
                ["online", "simple", "offline"][rng.below(3)],
                e5_facets(rng),
            ),
            2 | 3 => (
                Shape::Iprod {
                    n: rng.range(1, 24),
                    fig7: i % 10 == 3,
                },
                ["online", "offline"][rng.below(2)],
                vec!["size"],
            ),
            4 | 5 => (
                Shape::Match {
                    pattern: pattern(rng),
                },
                "online",
                vec!["contents"],
            ),
            6 => (
                Shape::Interp {
                    code: {
                        let ops = rng.range(2, 10);
                        bytecode(rng, ops)
                    },
                },
                "online",
                vec!["contents"],
            ),
            7 => (
                Shape::Kernel {
                    steps: rng.range(1, 24),
                    sign: maybe_sign(rng),
                },
                ["online", "simple", "offline"][rng.below(3)],
                e5_facets(rng),
            ),
            8 => (
                Shape::SumTo {
                    n: rng.range(1, 40),
                },
                ["online", "simple"][rng.below(2)],
                e5_facets(rng),
            ),
            _ => (
                Shape::AbsScale {
                    k: rng.range(-50, 50),
                    sign: if rng.coin() { Sign::Pos } else { Sign::Neg },
                },
                ["online", "offline"][rng.below(2)],
                vec!["sign"],
            ),
        };
        let spec = Spec {
            shape,
            engine,
            facets,
            optimize: rng.coin(),
            fuel_serial: 0,
        };
        if seen.insert(spec.clone()) {
            specs.push(spec);
        }
    }
    // Popularity rank: a fixed permutation, so no family owns the top.
    shuffled(rng, specs)
}

/// The residual entry's parameter names for each spec, learned by
/// specializing in-process (engines are deterministic, so the server's
/// residual has the same signature). Request lines need them: `execute`
/// inputs follow the residual's parameters, not the source's.
fn residual_params(specs: &[Spec]) -> Result<Vec<Vec<String>>, String> {
    let service = SpecializeService::new(ServiceConfig::default());
    let mut ctx = EngineContext::new();
    specs
        .iter()
        .map(|spec| {
            let json = Json::parse(&spec.line(None))?;
            let req = SpecializeRequest::from_json(&json)?;
            let out = service.handle(&req, &mut ctx).outcome?;
            let residual = parse_program(&out.residual).map_err(|e| e.to_string())?;
            Ok(residual
                .main()
                .params
                .iter()
                .map(|p| p.as_str().to_owned())
                .collect())
        })
        .collect()
}

/// Wire inputs for the residual's parameters, taken by name from the
/// source-entry concrete inputs.
fn exec_args(
    shape: &Shape,
    params: &[String],
    full: &[(Value, String)],
) -> Result<Vec<String>, String> {
    params
        .iter()
        .map(|p| {
            let i = shape
                .params()
                .iter()
                .position(|q| q == p)
                .ok_or_else(|| format!("residual parameter `{p}` is not a source parameter"))?;
            Ok(full[i].1.clone())
        })
        .collect()
}

/// The reference answer: the standard evaluator on the source program.
pub fn reference(shape: &Shape, full: &[(Value, String)]) -> Result<String, String> {
    let program = parse_program(shape.source()).map_err(|e| e.to_string())?;
    let args: Vec<Value> = full.iter().map(|(v, _)| v.clone()).collect();
    Evaluator::new(&program)
        .run_main(&args)
        .map(|v| v.to_string())
        .map_err(|e| format!("reference evaluation failed: {e}"))
}

fn zipf(seed: u64) -> Result<Workload, String> {
    const STREAM: usize = 8192;
    // The working set and its popularity ranking are the same for every
    // seed; the seed draws the order of requests and their inputs.
    let mut specs = zipf_specs(&mut Rng::new(0x21BF_5EED, 0));
    let params = residual_params(&specs)?;
    let n = specs.len();
    // Zipf(1.0) over popularity ranks, P(rank r) ∝ 1/(r+1), as exact
    // quotas over one cycle of the stream, in seeded order.
    let total: f64 = (0..n).map(|r| 1.0 / (r + 1) as f64).sum();
    let mut ranks: Vec<usize> = Vec::with_capacity(STREAM);
    for r in 0..n {
        let quota = (STREAM as f64 / ((r + 1) as f64 * total)).round() as usize;
        ranks.extend(std::iter::repeat_n(r, quota.max(1)));
    }
    ranks.truncate(STREAM);
    let mut rng = Rng::new(seed, 0x21BF);
    let ranks = shuffled(&mut rng, ranks);
    let exec = |spec: usize, rng: &mut Rng, specs: &[Spec]| -> Result<Req, String> {
        let shape = &specs[spec].shape;
        let full = shape.concrete(rng);
        let args = exec_args(shape, &params[spec], &full)?;
        Ok(Req {
            line: specs[spec].line(Some(&args)).into(),
            spec,
            expect: Expect::Value(reference(shape, &full)?),
        })
    };
    // Set-up executes every key once: residual cache and chunk cache hold
    // the whole working set before the clock starts.
    let mut warm = (0..n)
        .map(|i| exec(i, &mut rng, &specs))
        .collect::<Result<Vec<_>, _>>()?;
    let stream = ranks
        .into_iter()
        .map(|rank| exec(rank, &mut rng, &specs))
        .collect::<Result<Vec<_>, _>>()?;
    warm.push(probe(&mut specs));
    Ok(Workload {
        conns: 1,
        specs,
        warmup: vec![warm],
        stream: vec![stream],
        cyclic: true,
        window: STREAM / 4,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        for name in WORKLOADS {
            let a = generate(name, 7, 50).unwrap();
            let b = generate(name, 7, 50).unwrap();
            let lines = |w: &Workload| -> Vec<String> {
                w.warmup
                    .iter()
                    .chain(&w.stream)
                    .flatten()
                    .map(|r| r.line.to_string())
                    .collect()
            };
            assert_eq!(lines(&a), lines(&b), "{name}");
            let c = generate(name, 8, 50).unwrap();
            assert_ne!(lines(&a), lines(&c), "{name}: the seed matters");
        }
    }

    #[test]
    fn cold_keys_never_repeat() {
        let w = generate("cold_specialize", 3, 5000).unwrap();
        let mut seen = HashSet::new();
        for r in w.warmup.iter().chain(&w.stream).flatten() {
            assert!(seen.insert(r.line.clone()), "repeated: {}", r.line);
        }
    }

    #[test]
    fn hot_set_is_fixed_and_distinct() {
        let a = hot_set();
        assert_eq!(a.len(), 64);
        assert_eq!(a, hot_set());
        let families: HashSet<&str> = a.iter().map(|s| s.shape.family()).collect();
        for f in [
            "power",
            "abs-scale",
            "even-odd",
            "iprod",
            "iprod-fig7",
            "match",
        ] {
            assert!(families.contains(f), "hot set misses {f}");
        }
    }

    #[test]
    fn concrete_inputs_respect_refinements() {
        let mut rng = Rng::new(1, 2);
        for _ in 0..200 {
            let x = Sign::Neg.draw(&mut rng, 2);
            assert!((-2..0).contains(&x));
            let shape = Shape::Match {
                pattern: vec![97, 98],
            };
            let full = shape.concrete(&mut rng);
            let Value::Vector(s) = &full[1].0 else {
                panic!("subject is a vector")
            };
            assert!(s.len() <= 120);
        }
    }
}
