//! Stable, content-addressed cache keys.
//!
//! A residual program is fully determined by (the entry function's
//! *reachable closure* of definitions, per-input products of facet
//! values, facet set, engine, optimizer flag, and the `PeConfig` policy
//! knobs) — the cache-key soundness argument is spelled out in
//! `DESIGN.md` § "Service layer" and § "Dependency fingerprints". Since
//! the v2 schema the program component is the entry's **closure
//! fingerprint** (`ppe_analyze::depgraph`) rather than the whole-program
//! `Program::fingerprint`: definitions the entry cannot reach can no
//! longer perturb the key, so editing them preserves cache hits. The key
//! hashes nothing process-local: symbol *spellings* rather than interner
//! ids, facet *names* rather than trait-object addresses, and the
//! canonical `Display` rendering of each product component. Two
//! processes (or two threads racing through different interner states)
//! therefore agree on every key.
//!
//! An offline facet analysis is determined by less: the *abstractions*
//! of the products, the deadline and the exhaustion policy. Its key
//! ([`analysis_key`]) hashes only those, so requests that differ in their
//! static values or other budgets share one analysis.

use std::fmt;

use ppe_core::ProductVal;
use ppe_offline::abstract_of_product;
use ppe_online::{ExhaustionPolicy, PeConfig};

use crate::request::Engine;
use crate::spec::build_facets;

/// A 128-bit FNV-1a content hash identifying one specialization request
/// up to residual-equality.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u128);

impl CacheKey {
    /// The shard index for this key among `shards` (a power of two).
    pub fn shard(self, shards: usize) -> usize {
        // The low bits select within a shard's HashMap; use high bits for
        // the shard so the two choices stay independent.
        ((self.0 >> 64) as usize) & (shards - 1)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental FNV-1a over 128 bits. 64 bits would invite birthday
/// trouble at production cache sizes; 128 keeps accidental collision
/// probability negligible without pulling in a crypto dependency.
#[derive(Clone, Debug)]
pub struct KeyHasher(u128);

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl KeyHasher {
    /// A fresh hasher, domain-separated by `tag`.
    pub fn new(tag: &str) -> KeyHasher {
        let mut h = KeyHasher(FNV128_OFFSET);
        h.write_str(tag);
        h
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Feeds an integer (little-endian).
    pub fn write_u64(&mut self, n: u64) {
        self.write_bytes(&n.to_le_bytes());
    }

    /// Feeds a length-prefixed string, so adjacent fields can't alias.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated key.
    pub fn finish(&self) -> CacheKey {
        CacheKey(self.0)
    }
}

fn write_config(h: &mut KeyHasher, config: &PeConfig, optimize: bool) {
    h.write_u64(u64::from(config.max_unfold_depth));
    h.write_u64(config.max_specializations as u64);
    h.write_u64(config.fuel);
    h.write_u64(u64::from(config.propagate_constraints));
    h.write_u64(u64::from(config.check_consistency));
    h.write_u64(config.max_residual_size as u64);
    write_deadline(h, config);
    h.write_u64(u64::from(config.max_recursion_depth));
    write_policy(h, config);
    h.write_u64(u64::from(optimize));
}

fn write_deadline(h: &mut KeyHasher, config: &PeConfig) {
    match config.deadline {
        // Deadline-degraded results are wall-clock dependent; the key
        // still includes the budget so differently-budgeted requests never
        // share an entry (see DESIGN.md on why caching them is sound).
        Some(d) => h.write_u64(1 + d.as_millis() as u64),
        None => h.write_u64(0),
    }
}

fn write_policy(h: &mut KeyHasher, config: &PeConfig) {
    h.write_u64(match config.on_exhaustion {
        ExhaustionPolicy::Fail => 0,
        ExhaustionPolicy::Degrade => 1,
    });
}

/// Hashes the `Display` rendering of `value`, written into `buf`: one
/// buffer serves every product of a key.
fn write_rendered(h: &mut KeyHasher, buf: &mut String, value: &dyn fmt::Display) {
    use fmt::Write as _;
    buf.clear();
    let _ = write!(buf, "{value}");
    h.write_str(buf);
}

/// Builds the residual-cache key for one fully resolved request.
///
/// `closure_fingerprint` is the entry symbol's transitive-closure
/// fingerprint from `ppe_analyze::depgraph::DepGraph` — spelling-stable
/// and insensitive to definitions the entry cannot reach (that
/// insensitivity is what makes re-specialization incremental).
///
/// `products` must already be lowered over the facet set named by
/// `facet_names` (in that order) — the products' positional rendering only
/// means something together with the facet list, so both are hashed.
pub fn residual_key(
    closure_fingerprint: u64,
    entry: &str,
    engine: Engine,
    facet_names: &[String],
    products: &[ProductVal],
    optimize: bool,
    config: &PeConfig,
) -> CacheKey {
    let mut h = KeyHasher::new("ppe-residual-v2");
    h.write_u64(closure_fingerprint);
    h.write_str(entry);
    h.write_u64(engine as u64);
    h.write_u64(facet_names.len() as u64);
    for name in facet_names {
        h.write_str(name);
    }
    h.write_u64(products.len() as u64);
    let mut buf = String::new();
    for p in products {
        write_rendered(&mut h, &mut buf, p);
    }
    write_config(&mut h, config, optimize);
    h.finish()
}

/// Builds the analysis-cache key (offline engine) from the request's
/// *facet signature*: the closure fingerprint, the entry, the facet names,
/// each input's abstract product ([`abstract_of_product`]: `τ̄` on the PE
/// component, `ᾱᵢ` on each facet), and of the config only the deadline and
/// the exhaustion policy. That is everything facet analysis reads, so two
/// requests whose concrete inputs abstract alike share one analysis
/// whatever their static values, budgets or optimizer flag (Definition 8:
/// one analysis per abstract input serves every concrete one).
///
/// `products` are lowered as for [`residual_key`]. The facet set is
/// rebuilt from `facet_names`; should a name be unknown, or a product not
/// match the set, that product is hashed concretely instead, which can
/// only split keys, never merge them.
pub fn analysis_key(
    closure_fingerprint: u64,
    entry: &str,
    facet_names: &[String],
    products: &[ProductVal],
    config: &PeConfig,
) -> CacheKey {
    let mut h = KeyHasher::new("ppe-analysis-v3");
    h.write_u64(closure_fingerprint);
    h.write_str(entry);
    h.write_u64(facet_names.len() as u64);
    for name in facet_names {
        h.write_str(name);
    }
    h.write_u64(products.len() as u64);
    let aset = build_facets(facet_names).ok().map(|f| f.abstract_set());
    let mut buf = String::new();
    for p in products {
        match &aset {
            Some(aset) if aset.len() == p.facet_components().len() => {
                h.write_u64(0);
                write_rendered(&mut h, &mut buf, &abstract_of_product(p, aset));
            }
            _ => {
                h.write_u64(1);
                write_rendered(&mut h, &mut buf, p);
            }
        }
    }
    write_deadline(&mut h, config);
    write_policy(&mut h, config);
    h.finish()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::Duration;

    use ppe_core::AbstractProductVal;

    use super::*;
    use crate::spec::{build_facets, parse_input, parse_refinement, ALL_FACETS};

    fn products(specs: &[&str], facets: &[&str]) -> (Vec<String>, Vec<ProductVal>) {
        let names: Vec<String> = facets.iter().map(|s| s.to_string()).collect();
        let set = build_facets(&names).unwrap();
        let ps = specs
            .iter()
            .map(|s| parse_input(s).unwrap().to_product(&set).unwrap())
            .collect();
        (names, ps)
    }

    #[test]
    fn identical_requests_agree() {
        let (names, ps) = products(&["_:size=3", "_:size=3"], &["size"]);
        let config = PeConfig::default();
        let a = residual_key(7, "iprod", Engine::Online, &names, &ps, false, &config);
        let b = residual_key(7, "iprod", Engine::Online, &names, &ps, false, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn refinement_order_is_canonicalized_by_products() {
        let (names, a) = products(&["_:size=3:sign=pos"], &["sign", "size"]);
        let (_, b) = products(&["_:sign=pos:size=3"], &["sign", "size"]);
        let config = PeConfig::default();
        assert_eq!(
            residual_key(1, "f", Engine::Online, &names, &a, false, &config),
            residual_key(1, "f", Engine::Online, &names, &b, false, &config),
            "the product lowers refinements into facet positions"
        );
    }

    #[test]
    fn every_component_separates_keys() {
        let (names, ps) = products(&["_:size=3"], &["size"]);
        let config = PeConfig::default();
        let base = residual_key(7, "f", Engine::Online, &names, &ps, false, &config);
        let (_, other) = products(&["_:size=4"], &["size"]);
        assert_ne!(
            base,
            residual_key(7, "f", Engine::Online, &names, &other, false, &config)
        );
        assert_ne!(
            base,
            residual_key(8, "f", Engine::Online, &names, &ps, false, &config)
        );
        assert_ne!(
            base,
            residual_key(7, "g", Engine::Online, &names, &ps, false, &config)
        );
        assert_ne!(
            base,
            residual_key(7, "f", Engine::Simple, &names, &ps, false, &config)
        );
        assert_ne!(
            base,
            residual_key(7, "f", Engine::Online, &names, &ps, true, &config)
        );
        let tight = PeConfig {
            fuel: 1,
            ..PeConfig::default()
        };
        assert_ne!(
            base,
            residual_key(7, "f", Engine::Online, &names, &ps, false, &tight)
        );
    }

    #[test]
    fn shards_use_high_bits() {
        let (names, ps) = products(&["_"], &["sign"]);
        let k = residual_key(
            1,
            "f",
            Engine::Online,
            &names,
            &ps,
            false,
            &PeConfig::default(),
        );
        assert!(k.shard(16) < 16);
        assert_eq!(k.shard(1), 0);
    }

    #[test]
    fn analysis_keys_follow_the_facet_signature() {
        let config = PeConfig::default();
        let key = |specs: &[&str], facets: &[&str], config: &PeConfig| {
            let (names, ps) = products(specs, facets);
            analysis_key(7, "power", &names, &ps, config)
        };
        let base = key(&["_:sign=pos", "2"], &["sign"], &config);
        // Static values that abstract alike share the analysis.
        assert_eq!(base, key(&["_:sign=pos", "5"], &["sign"], &config));
        // So do the budgets analysis never reads.
        for other in [
            PeConfig {
                fuel: 1,
                ..config.clone()
            },
            PeConfig {
                max_unfold_depth: 3,
                ..config.clone()
            },
            PeConfig {
                max_specializations: 2,
                ..config.clone()
            },
        ] {
            assert_eq!(base, key(&["_:sign=pos", "2"], &["sign"], &other));
        }
        // Everything analysis reads separates keys: the deadline, the
        // exhaustion policy, the facet set and the abstract inputs.
        let deadline = PeConfig {
            deadline: Some(Duration::from_millis(50)),
            ..config.clone()
        };
        let degrade = PeConfig {
            on_exhaustion: ExhaustionPolicy::Degrade,
            ..config.clone()
        };
        for other in [
            key(&["_:sign=pos", "2"], &["sign"], &deadline),
            key(&["_:sign=pos", "2"], &["sign"], &degrade),
            key(&["_:sign=pos", "2"], &["sign", "parity"], &config),
            key(&["_:sign=pos", "-2"], &["sign"], &config),
            key(&["_:sign=pos", "_"], &["sign"], &config),
            key(&["_", "2"], &["sign"], &config),
        ] {
            assert_ne!(base, other);
        }
        let (names, ps) = products(&["_:sign=pos", "2"], &["sign"]);
        assert_ne!(base, analysis_key(8, "power", &names, &ps, &config));
        assert_ne!(base, analysis_key(7, "pow", &names, &ps, &config));
        // Names the service rejects, or products over another facet set,
        // fall back to the concrete rendering instead of panicking.
        let unknown = vec!["nope".to_owned()];
        assert_ne!(base, analysis_key(7, "power", &unknown, &ps, &config));
        let (wider, _) = products(&[], &["sign", "parity"]);
        assert_ne!(base, analysis_key(7, "power", &wider, &ps, &config));
    }

    #[test]
    fn abstract_renderings_tell_every_product_apart() {
        // Refinements that reach the corners of the infinite domains (range
        // and const-set are their own abstract facets), and inputs a
        // request can send.
        let refinements = [
            "sign=pos",
            "sign=neg",
            "sign=zero",
            "parity=even",
            "parity=odd",
            "size=0",
            "size=3",
            "range=0..5",
            "range=..5",
            "range=0..",
            "range=..",
            "range=3..3",
            "range=-9223372036854775808..9223372036854775807",
            "const-set=1",
            "const-set=1.0",
            "const-set=1|2",
            "const-set=#t|#f",
            "const-set=0.0",
            "const-set=-0.0",
            "const-set=1e15",
            "const-set=-inf|2.5",
        ];
        let inputs = [
            "_", "0", "1", "-3", "1.0", "0.0", "-0.0", "2.5", "1e15", "#t", "#f", "vec:1,2",
            "vec:1.0", "vec:#t",
        ];
        for name in ALL_FACETS {
            let names = vec![name.to_string()];
            let facets = build_facets(&names).unwrap();
            let aset = facets.abstract_set();
            let abs = aset.abstract_facet(0);
            let mut values = vec![abs.bottom(), abs.top()];
            values.extend(abs.enumerate().unwrap_or_default());
            for r in refinements {
                let (facet, online) = parse_refinement(r).unwrap();
                if facet == *name {
                    values.push(abs.alpha_facet(&online));
                }
            }
            let mut all = Vec::new();
            for base in [
                AbstractProductVal::bottom(&aset),
                AbstractProductVal::static_top(&aset),
                AbstractProductVal::dynamic(&aset),
            ] {
                all.extend(values.iter().map(|v| base.with_facet(0, v.clone())));
            }
            for spec in inputs {
                let product = parse_input(spec).unwrap().to_product(&facets).unwrap();
                all.push(abstract_of_product(&product, &aset));
            }
            let mut seen: HashMap<String, AbstractProductVal> = HashMap::new();
            for p in all {
                let text = p.to_string();
                match seen.get(&text) {
                    Some(prev) => assert_eq!(prev, &p, "`{name}`: two products render {text}"),
                    None => {
                        seen.insert(text, p);
                    }
                }
            }
            assert!(seen.len() >= 3 * 2, "`{name}`: {:?}", seen.keys());
        }
    }
}
