//! Serialized coverage atlases: checked-in binary tables of prebuilt
//! [`CoverageSet`]s for the stock bases, so `Target` construction loads
//! geometry instead of re-running sampling + quickhull.
//!
//! # Format (version 1, little-endian)
//!
//! ```text
//! magic   b"MIRATLAS"                      8 bytes
//! version u32 = 1
//! header  basis name (u32 len + utf-8), duration, coord (a, b, c),
//!         unitary fingerprint (FNV-1a over the 32 f64 bit patterns),
//!         build options (max_k, samples_per_k, inflation, mirrors, seed)
//! set     mirrors u8, tol f64, level count u32, then per level:
//!         k u32, cost f64, full u8, region count u32, then per region:
//!         rank u32, vertices (u32 count + 3×f64 each),
//!         halfspaces (u32 count + n[3] f64, d f64, equality u8 each)
//! footer  FNV-1a 64 checksum over all preceding bytes
//! ```
//!
//! Every `f64` is stored via [`f64::to_bits`], so a decoded set is
//! bit-identical to the encoded one. [`decode`] verifies the magic,
//! version, checksum, *and* that the header matches the caller's requested
//! basis + options — any mismatch returns `None` and the caller falls back
//! to a fresh [`CoverageSet::build`], so a stale or corrupt atlas can never
//! change results, only cost time.
//!
//! Atlases for the stock bases live in `crates/coverage/atlases/` and are
//! embedded with `include_bytes!`; regenerate them after any change to the
//! hull or sampling code with `cargo run --release -p mirage-bench --bin
//! coverage_runtime -- --regen-atlases` (the pinned-fingerprint test in
//! `crates/coverage/tests/coverage_geometry.rs` fails until the files and
//! pins agree).

use crate::geom::{ConvexPolytope, Halfspace};
use crate::set::{BasisGate, CoverageLevel, CoverageOptions, CoverageSet};
use mirage_math::hash::{fnv1a, Fnv1a};

const MAGIC: &[u8; 8] = b"MIRATLAS";
const VERSION: u32 = 1;

/// FNV-1a fingerprint of a basis gate's unitary (bit patterns of all 32
/// matrix components in row-major re/im order).
fn unitary_fingerprint(basis: &BasisGate) -> u64 {
    let mut h = Fnv1a::new();
    for row in &basis.unitary.e {
        for z in row {
            h.write_f64(z.re);
            h.write_f64(z.im);
        }
    }
    h.finish()
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Serialize a coverage set together with the options it was built under.
pub fn encode(set: &CoverageSet, opts: &CoverageOptions) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 << 16);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    // Basis identity.
    put_u32(&mut out, set.basis.name.len() as u32);
    out.extend_from_slice(set.basis.name.as_bytes());
    put_f64(&mut out, set.basis.duration);
    put_f64(&mut out, set.basis.coord.a);
    put_f64(&mut out, set.basis.coord.b);
    put_f64(&mut out, set.basis.coord.c);
    put_u64(&mut out, unitary_fingerprint(&set.basis));
    // Build options.
    put_u32(&mut out, opts.max_k as u32);
    put_u32(&mut out, opts.samples_per_k as u32);
    put_f64(&mut out, opts.inflation);
    out.push(u8::from(opts.mirrors));
    put_u64(&mut out, opts.seed);
    // The set itself.
    out.push(u8::from(set.mirrors));
    put_f64(&mut out, set.tol);
    put_u32(&mut out, set.levels.len() as u32);
    for level in &set.levels {
        put_u32(&mut out, level.k as u32);
        put_f64(&mut out, level.cost);
        out.push(u8::from(level.full));
        put_u32(&mut out, level.regions.len() as u32);
        for region in &level.regions {
            put_u32(&mut out, region.rank as u32);
            put_u32(&mut out, region.vertices.len() as u32);
            for v in &region.vertices {
                for &x in v {
                    put_f64(&mut out, x);
                }
            }
            put_u32(&mut out, region.halfspaces.len() as u32);
            for h in &region.halfspaces {
                for &x in &h.n {
                    put_f64(&mut out, x);
                }
                put_f64(&mut out, h.d);
                out.push(u8::from(h.equality));
            }
        }
    }
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    out
}

/// Byte-stream cursor; every read is bounds-checked so truncated or
/// corrupt atlases fail decoding instead of panicking.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
}

/// Sanity cap on decoded collection lengths; real atlases hold a handful
/// of levels with tens of halfspaces each.
const MAX_LEN: u32 = 1 << 20;

/// Decode an atlas, verifying integrity and that it describes exactly the
/// requested basis and build options. Returns `None` on any mismatch —
/// callers fall back to building fresh.
pub fn decode(bytes: &[u8], basis: &BasisGate, opts: &CoverageOptions) -> Option<CoverageSet> {
    if bytes.len() < MAGIC.len() + 12 {
        return None;
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    if fnv1a(body) != u64::from_le_bytes(footer.try_into().ok()?) {
        return None;
    }
    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    if c.take(8)? != MAGIC || c.u32()? != VERSION {
        return None;
    }
    // Basis identity must match the caller's gate bit-for-bit.
    let name_len = c.u32()?;
    if name_len > MAX_LEN {
        return None;
    }
    let name = std::str::from_utf8(c.take(name_len as usize)?).ok()?;
    let same_basis = name == basis.name
        && c.f64()?.to_bits() == basis.duration.to_bits()
        && c.f64()?.to_bits() == basis.coord.a.to_bits()
        && c.f64()?.to_bits() == basis.coord.b.to_bits()
        && c.f64()?.to_bits() == basis.coord.c.to_bits()
        && c.u64()? == unitary_fingerprint(basis);
    let same_opts = c.u32()? as usize == opts.max_k
        && c.u32()? as usize == opts.samples_per_k
        && c.f64()?.to_bits() == opts.inflation.to_bits()
        && c.u8()? == u8::from(opts.mirrors)
        && c.u64()? == opts.seed;
    if !same_basis || !same_opts {
        return None;
    }
    let mirrors = c.u8()? != 0;
    let tol = c.f64()?;
    let n_levels = c.u32()?;
    if n_levels > MAX_LEN {
        return None;
    }
    let mut levels = Vec::with_capacity(n_levels as usize);
    for _ in 0..n_levels {
        let k = c.u32()? as usize;
        let cost = c.f64()?;
        let full = c.u8()? != 0;
        let n_regions = c.u32()?;
        if n_regions > MAX_LEN {
            return None;
        }
        let mut regions = Vec::with_capacity(n_regions as usize);
        for _ in 0..n_regions {
            let rank = c.u32()? as usize;
            let nv = c.u32()?;
            if nv > MAX_LEN {
                return None;
            }
            let mut vertices = Vec::with_capacity(nv as usize);
            for _ in 0..nv {
                vertices.push([c.f64()?, c.f64()?, c.f64()?]);
            }
            let nh = c.u32()?;
            if nh > MAX_LEN {
                return None;
            }
            let mut halfspaces = Vec::with_capacity(nh as usize);
            for _ in 0..nh {
                let n = [c.f64()?, c.f64()?, c.f64()?];
                let d = c.f64()?;
                let equality = c.u8()? != 0;
                halfspaces.push(Halfspace { n, d, equality });
            }
            regions.push(ConvexPolytope {
                vertices,
                halfspaces,
                rank,
            });
        }
        levels.push(CoverageLevel {
            k,
            regions,
            cost,
            full,
        });
    }
    if c.pos != body.len() || levels.is_empty() {
        return None;
    }
    Some(CoverageSet {
        basis: basis.clone(),
        levels,
        mirrors,
        tol,
    })
}

/// The stock `(basis, build options)` pairs whose coverage sets ship as
/// checked-in atlases — the sets behind `Target::sqrt_iswap`,
/// `Target::cnot`, and `Target::cz` (paper-default construction
/// parameters; seeds match `mirage-core`'s shared statics).
pub fn stock_specs() -> [(BasisGate, CoverageOptions); 3] {
    let opts = |seed: u64| CoverageOptions {
        max_k: 3,
        samples_per_k: 1200,
        inflation: 0.012,
        mirrors: false,
        seed,
    };
    [
        (BasisGate::iswap_root(2), opts(0xC0FFEE)),
        (BasisGate::cnot(), opts(0xC407)),
        (BasisGate::cz(), opts(0xC2)),
    ]
}

/// Embedded atlas bytes for a stock basis name, if one ships in-crate.
pub fn stock_atlas_bytes(name: &str) -> Option<&'static [u8]> {
    match name {
        "sqrt_iswap" => Some(include_bytes!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/atlases/sqrt_iswap.atlas"
        ))),
        "cnot" => Some(include_bytes!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/atlases/cnot.atlas"
        ))),
        "cz" => Some(include_bytes!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/atlases/cz.atlas"
        ))),
        _ => None,
    }
}

/// Load the embedded atlas for `basis` if one exists and matches the
/// requested options; `None` means "build fresh".
pub fn load_stock(basis: &BasisGate, opts: &CoverageOptions) -> Option<CoverageSet> {
    decode(stock_atlas_bytes(&basis.name)?, basis, opts)
}

/// The coverage set for a stock basis name: atlas-loaded when the embedded
/// atlas matches the stock spec, freshly built otherwise.
///
/// # Panics
///
/// Panics when `name` is not one of the stock bases (see
/// [`stock_specs`]).
pub fn stock_set(name: &str) -> CoverageSet {
    let (basis, opts) = stock_specs()
        .into_iter()
        .find(|(b, _)| b.name == name)
        .unwrap_or_else(|| panic!("unknown stock basis {name:?}"));
    load_stock(&basis, &opts).unwrap_or_else(|| CoverageSet::build(basis, &opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_set() -> (CoverageSet, CoverageOptions) {
        let opts = CoverageOptions {
            max_k: 2,
            samples_per_k: 300,
            inflation: 0.01,
            mirrors: false,
            seed: 3,
        };
        (CoverageSet::build(BasisGate::iswap_root(2), &opts), opts)
    }

    #[test]
    fn round_trip_is_identical() {
        let (set, opts) = small_set();
        let bytes = encode(&set, &opts);
        let loaded = decode(&bytes, &set.basis, &opts).expect("decodes");
        assert_eq!(loaded.levels, set.levels);
        assert_eq!(loaded.mirrors, set.mirrors);
        assert!(loaded.tol.to_bits() == set.tol.to_bits());
    }

    #[test]
    fn corruption_is_rejected() {
        let (set, opts) = small_set();
        let bytes = encode(&set, &opts);
        // Flip one byte anywhere — checksum catches it.
        for pos in [0, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad, &set.basis, &opts).is_none(), "pos {pos}");
        }
        // Truncation.
        assert!(decode(&bytes[..bytes.len() - 9], &set.basis, &opts).is_none());
        assert!(decode(&[], &set.basis, &opts).is_none());
    }

    #[test]
    fn mismatched_basis_or_opts_rejected() {
        let (set, opts) = small_set();
        let bytes = encode(&set, &opts);
        let other_basis = BasisGate::cnot();
        assert!(decode(&bytes, &other_basis, &opts).is_none());
        let mut other_opts = opts.clone();
        other_opts.seed ^= 1;
        assert!(decode(&bytes, &set.basis, &other_opts).is_none());
        let mut other_inflation = opts.clone();
        other_inflation.inflation += 1e-9;
        assert!(decode(&bytes, &set.basis, &other_inflation).is_none());
    }

    #[test]
    fn stock_specs_cover_target_bases() {
        let names: Vec<String> = stock_specs().iter().map(|(b, _)| b.name.clone()).collect();
        assert_eq!(names, ["sqrt_iswap", "cnot", "cz"]);
        for (basis, opts) in stock_specs() {
            assert_eq!(opts.samples_per_k, 1200, "{}", basis.name);
            assert!(!opts.mirrors, "{}", basis.name);
            assert_eq!(opts.max_k, 3, "{}", basis.name);
        }
    }
}
