//! A fixed reference computation that gauges the machine's speed.
//!
//! On a shared host the CPU runs up to about 1.8 times slower for minutes
//! at a time while other tenants load the same physical cores. The
//! server's CPU time per request moves with it, so no choice of samples
//! within one run removes it. This computation does what a request does:
//! it allocates and frees a tree of about 100 000 nodes, prints it, parses
//! the text back and hashes its symbols. It is fixed code that no change
//! to the program moves. One call runs at every slice boundary (see
//! `bench::Slice`), and a run's timings are scaled by [`NOMINAL_NS`] over
//! the median call next to the slices kept.

use std::collections::HashMap;
use std::time::Instant;

/// The unit of the scaled figures: they read as if every reference call
/// had taken this long. On a lightly loaded 2-vCPU host of the class the
/// benchmark was built on, the server's raw figures came within about 15%
/// of the scaled ones.
pub const NOMINAL_NS: f64 = 2_500_000.0;

enum Node {
    Num(i64),
    Sym(String),
    List(Vec<Node>),
}

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

const SYMBOLS: [&str; 12] = [
    "if", "let", "define", "acc", "n", "x", "vref", "mkvec", "+", "*", "-", "=",
];

fn generate(rng: &mut Xorshift, depth: u32) -> Node {
    let r = rng.next();
    if depth == 0 || r.is_multiple_of(5) {
        return if r.is_multiple_of(3) {
            Node::Num((r >> 8) as i64 % 1000)
        } else {
            Node::Sym(SYMBOLS[(r >> 8) as usize % SYMBOLS.len()].to_owned())
        };
    }
    let width = 2 + (r >> 16) as usize % 3;
    Node::List((0..width).map(|_| generate(rng, depth - 1)).collect())
}

fn print(node: &Node, out: &mut String) {
    match node {
        Node::Num(n) => out.push_str(&n.to_string()),
        Node::Sym(s) => out.push_str(s),
        Node::List(items) => {
            out.push('(');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                print(item, out);
            }
            out.push(')');
        }
    }
}

fn parse(text: &[u8], at: &mut usize) -> Node {
    while text[*at] == b' ' {
        *at += 1;
    }
    if text[*at] == b'(' {
        *at += 1;
        let mut items = Vec::new();
        loop {
            while text[*at] == b' ' {
                *at += 1;
            }
            if text[*at] == b')' {
                *at += 1;
                return Node::List(items);
            }
            items.push(parse(text, at));
        }
    }
    let start = *at;
    while !matches!(text[*at], b' ' | b'(' | b')') {
        *at += 1;
    }
    let atom = std::str::from_utf8(&text[start..*at]).expect("ascii");
    match atom.parse() {
        Ok(n) => Node::Num(n),
        Err(_) => Node::Sym(atom.to_owned()),
    }
}

fn eval(node: &Node, env: &mut HashMap<String, i64>) -> i64 {
    match node {
        Node::Num(n) => *n,
        Node::Sym(s) => {
            let next = env.len() as i64;
            *env.entry(s.clone()).or_insert(next)
        }
        Node::List(items) => items.iter().fold(1i64, |acc, item| {
            acc.wrapping_mul(31).wrapping_add(eval(item, env))
        }),
    }
}

/// One call: generate the tree, print it, parse the text back and
/// evaluate the copy. Its few MiB of live data feel the same shared-cache
/// pressure the server's requests do; a smaller tree or a pure register
/// loop tracked the server's slowdowns less closely.
fn once() -> i64 {
    let mut rng = Xorshift(0x5EED_CA11);
    let tree = generate(&mut rng, 10);
    let mut text = String::new();
    print(&tree, &mut text);
    drop(tree);
    let copy = parse(text.as_bytes(), &mut 0);
    eval(&copy, &mut HashMap::new()) ^ text.len() as i64
}

/// One call of the reference computation, in nanoseconds.
pub fn reference_ns() -> u64 {
    let t0 = Instant::now();
    std::hint::black_box(once());
    t0.elapsed().as_nanos() as u64
}
