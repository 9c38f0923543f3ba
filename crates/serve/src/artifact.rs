//! The versioned on-disk **abstraction-artifact store** — cross-run
//! persistence for the incremental re-verification pipeline.
//!
//! Where the disk query cache (sibling module [`crate::disk`]) persists
//! raw SMT answers, this store persists the *products of a whole CEGAR
//! run* for one program:
//!
//! * the kernel [`Manifest`] — per-definition content hashes and depth-1
//!   cone hashes the diff-and-seed driver compares on resubmission;
//! * the winning predicate environment ([`AbsEnv`]) — seeded (restricted
//!   to unchanged definitions) into the next run's initial environment;
//! * the final transition-memo entries ([`MemoDefExport`]) — replayed
//!   verbatim for definitions whose cone is unchanged;
//! * the interpolants discovered during refinement — seeded into the
//!   query cache so re-refinement of an unchanged path is a lookup.
//!
//! One file per program key, `<slug>-<hash16>.art`, in the
//! [`crate::store`] format under the magic `homc-artifact`. Record payloads
//! are flat token streams in the [`crate::codec`] style (tagged,
//! length-prefixed strings, explicit child counts, total decoding).
//!
//! The whole file is one unit of trust: *any* integrity violation (bad
//! magic, framing, checksum, decode error, structural mismatch) quarantines
//! it, bumping [`Counter::ArtifactQuarantine`], and the caller proceeds
//! cold. A partial artifact is never seeded: unlike cache records, the
//! pieces are interdependent (a memo entry is only meaningful next to the
//! manifest it was fingerprinted against). Files of another version are
//! reclaimed (artifacts are rebuildable by construction).
//!
//! Soundness does not rest on any of this: everything seeded from an
//! artifact is a *candidate* (predicates, cone-fingerprinted memo
//! entries, cached interpolant answers keyed by full keys), so even a
//! checksum-forging corruption could cost iterations, never verdicts.

use std::io;
use std::path::{Path, PathBuf};

use homc_abs::{AbsEnv, AbsTy, MemoDefExport, Predicate};
use homc_hbp::{BDef, BExpr, BTy, BVal, BoolExpr};
use homc_lang::kernel::FunName;
use homc_lang::manifest::{DefEntry, Manifest};
use homc_lang::types::SimpleTy;
use homc_metrics::{Counter, Metrics};
use homc_smt::{Formula, InterpKey, Literal};

use crate::codec::{put_atom, put_formula, put_list, put_str, put_var, CodecError, Cur};
use crate::store::{Assemble, Policy, Store};

/// First bytes of every artifact file.
pub const ARTIFACT_MAGIC: &str = "homc-artifact";
/// Schema version of the record payloads; bump on any codec change.
pub const ARTIFACT_VERSION: u32 = 1;

static POLICY: Policy = Policy {
    magic: ARTIFACT_MAGIC,
    version: ARTIFACT_VERSION,
    prefix: "",
    ext: ".art",
    reclaim_stale: true,
    skip_bad_records: false,
    counter: Counter::ArtifactQuarantine,
};

/// Everything one verification run persists for its program.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Per-definition fingerprints of the kernel normal form.
    pub manifest: Manifest,
    /// The final (winning) predicate environment.
    pub env: AbsEnv,
    /// Final transition-memo entries, exported per definition.
    pub memo: Vec<MemoDefExport>,
    /// Interpolation answers discovered (or carried forward) by the run.
    pub interp: Vec<(InterpKey, Option<Formula>)>,
}

/// Handle to one artifact directory (shared with, or next to, a query
/// cache directory — the file-name namespaces don't collide).
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    store: Store,
}

impl ArtifactStore {
    /// A store rooted at `dir` (created on first publish).
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore {
            store: Store::new(dir.into(), &POLICY),
        }
    }

    /// Attaches a metrics registry ([`Counter::ArtifactQuarantine`]).
    pub fn with_metrics(mut self, metrics: Metrics) -> ArtifactStore {
        self.store = self.store.with_metrics(metrics);
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The file path for a program key. The key (a suite program name or a
    /// source path) is slugged for the filesystem and disambiguated by its
    /// full FNV hash, so distinct keys never share a file.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.store.path_for(key)
    }

    /// Loads the artifact for `key`. A `None` artifact with
    /// `quarantined: false` is a clean miss; with `quarantined: true` the
    /// file failed an integrity check and has been renamed to
    /// `<name>.quarantined` (and counted) — either way the caller proceeds
    /// cold.
    pub fn load(&self, key: &str) -> io::Result<ArtifactLoad> {
        let (artifact, quarantined) = self.store.load_keyed::<PartialArtifact>(key);
        Ok(ArtifactLoad {
            artifact,
            quarantined,
        })
    }

    /// Publishes `artifact` under `key`, atomically replacing any previous
    /// artifact for the same key.
    pub fn publish(&self, key: &str, artifact: &Artifact) -> io::Result<PathBuf> {
        let text = POLICY.compose(encode_artifact(artifact));
        self.store.publish_keyed(key, text.as_bytes())
    }
}

/// What [`ArtifactStore::load`] found and did.
#[derive(Clone, Debug, Default)]
pub struct ArtifactLoad {
    /// The decoded artifact, when one was present and intact.
    pub artifact: Option<Artifact>,
    /// `true` when a file existed but failed an integrity check and was
    /// quarantined.
    pub quarantined: bool,
}

// ---------------------------------------------------------------- encoding

pub(crate) fn put_funname(out: &mut String, f: &FunName) {
    put_str(out, &f.0);
}

pub(crate) fn put_u64(out: &mut String, n: u64) {
    out.push_str(&n.to_string());
}

pub(crate) fn put_usize(out: &mut String, n: usize) {
    out.push_str(&n.to_string());
}

fn put_simplety(out: &mut String, t: &SimpleTy) {
    match t {
        SimpleTy::Unit => out.push('u'),
        SimpleTy::Bool => out.push('b'),
        SimpleTy::Int => out.push('i'),
        SimpleTy::Fun(a, r) => {
            out.push_str("f ");
            put_simplety(out, a);
            out.push(' ');
            put_simplety(out, r);
        }
    }
}

fn put_predicate(out: &mut String, p: &Predicate) {
    put_var(out, p.nu());
    out.push(' ');
    put_formula(out, p.body());
}

fn put_absty(out: &mut String, t: &AbsTy) {
    match t {
        AbsTy::Base(st, preds) => {
            out.push_str("B ");
            put_simplety(out, st);
            out.push(' ');
            put_list(out, preds, put_predicate);
        }
        AbsTy::Fun(x, a, r) => {
            out.push_str("F ");
            put_var(out, x);
            out.push(' ');
            put_absty(out, a);
            out.push(' ');
            put_absty(out, r);
        }
    }
}

fn put_bty(out: &mut String, t: &BTy) {
    match t {
        BTy::Tuple(w) => {
            out.push_str("t ");
            put_usize(out, *w);
        }
        BTy::Fun(a, r) => {
            out.push_str("f ");
            put_bty(out, a);
            out.push(' ');
            put_bty(out, r);
        }
    }
}

fn put_boolexpr(out: &mut String, e: &BoolExpr) {
    match e {
        BoolExpr::Const(b) => out.push_str(if *b { "c1" } else { "c0" }),
        BoolExpr::Proj(x, i) => {
            out.push_str("p ");
            put_var(out, x);
            out.push(' ');
            put_usize(out, *i);
        }
        BoolExpr::Not(g) => {
            out.push_str("! ");
            put_boolexpr(out, g);
        }
        BoolExpr::And(gs) | BoolExpr::Or(gs) => {
            out.push(if matches!(e, BoolExpr::And(_)) { '&' } else { '|' });
            out.push(' ');
            put_list(out, gs, put_boolexpr);
        }
    }
}

fn put_bval(out: &mut String, v: &BVal) {
    match v {
        BVal::Tuple(es) => {
            out.push_str("T ");
            put_list(out, es, put_boolexpr);
        }
        BVal::Var(x) => {
            out.push_str("V ");
            put_var(out, x);
        }
        BVal::Fun(f) => {
            out.push_str("G ");
            put_funname(out, f);
        }
        BVal::PApp(h, args) => {
            out.push_str("A ");
            put_bval(out, h);
            out.push(' ');
            put_list(out, args, put_bval);
        }
    }
}

fn put_bexpr(out: &mut String, e: &BExpr) {
    match e {
        BExpr::Value(v) => {
            out.push_str("v ");
            put_bval(out, v);
        }
        BExpr::Call(h, args) => {
            out.push_str("c ");
            put_bval(out, h);
            out.push(' ');
            put_list(out, args, put_bval);
        }
        BExpr::Let(x, rhs, body) => {
            out.push_str("l ");
            put_var(out, x);
            out.push(' ');
            put_bexpr(out, rhs);
            out.push(' ');
            put_bexpr(out, body);
        }
        BExpr::SChoice(l, r) => {
            out.push_str("s ");
            put_bexpr(out, l);
            out.push(' ');
            put_bexpr(out, r);
        }
        BExpr::AChoice(l, r) => {
            out.push_str("a ");
            put_bexpr(out, l);
            out.push(' ');
            put_bexpr(out, r);
        }
        BExpr::Assume(c, body) => {
            out.push_str("m ");
            put_boolexpr(out, c);
            out.push(' ');
            put_bexpr(out, body);
        }
        BExpr::Fail => out.push('f'),
    }
}

fn put_bdef(out: &mut String, d: &BDef) {
    put_funname(out, &d.name);
    out.push(' ');
    put_list(out, &d.params, |out, (x, t)| {
        put_var(out, x);
        out.push(' ');
        put_bty(out, t);
    });
    out.push(' ');
    put_bexpr(out, &d.body);
}

fn put_literal(out: &mut String, l: &Literal) {
    match l {
        Literal::Arith(a) => {
            out.push_str("A ");
            put_atom(out, a);
        }
        Literal::Bool(v, pol) => {
            out.push_str("B ");
            put_var(out, v);
            out.push(' ');
            out.push(if *pol { '1' } else { '0' });
        }
    }
}

/// Encodes a predicate environment as `E` records (one per scheme) and
/// `R` records (one per rand site); shared by artifacts and evidence.
pub(crate) fn encode_env(env: &AbsEnv, out: &mut Vec<String>) {
    for (f, scheme) in &env.schemes {
        let mut s = String::from("E ");
        put_funname(&mut s, f);
        s.push(' ');
        put_list(&mut s, scheme, |out, (x, t)| {
            put_var(out, x);
            out.push(' ');
            put_absty(out, t);
        });
        out.push(s);
    }
    for (x, preds) in &env.rand_sites {
        let mut s = String::from("R ");
        put_var(&mut s, x);
        s.push(' ');
        put_list(&mut s, preds, put_predicate);
        out.push(s);
    }
}

/// Encodes an artifact as one record payload per logical piece: an `H`
/// header, `M` manifest entries, `E` schemes, `R` rand sites, `D` memo
/// entries, and `I` interpolants.
fn encode_artifact(a: &Artifact) -> Vec<String> {
    let mut s = String::from("H ");
    put_funname(&mut s, &a.manifest.main);
    s.push(' ');
    put_usize(&mut s, a.manifest.defs.len());
    let mut out = vec![s];
    for (i, d) in a.manifest.defs.iter().enumerate() {
        let mut s = String::from("M ");
        put_usize(&mut s, i);
        s.push(' ');
        put_funname(&mut s, &d.name);
        s.push(' ');
        put_u64(&mut s, d.body_hash);
        s.push(' ');
        put_u64(&mut s, d.cone_hash);
        out.push(s);
    }
    encode_env(&a.env, &mut out);
    for e in &a.memo {
        let mut s = String::from("D ");
        put_usize(&mut s, e.index);
        s.push(' ');
        put_funname(&mut s, &e.name);
        s.push(' ');
        put_u64(&mut s, e.fp);
        s.push(' ');
        put_usize(&mut s, e.sat_queries);
        s.push(' ');
        put_usize(&mut s, e.coercions);
        s.push(' ');
        put_usize(&mut s, e.ctx_truncated);
        s.push(' ');
        put_list(&mut s, &e.defs, put_bdef);
        out.push(s);
    }
    for ((a1, a2, depth), value) in &a.interp {
        let mut s = String::from("I ");
        put_usize(&mut s, *depth as usize);
        s.push(' ');
        put_list(&mut s, a1, put_literal);
        s.push(' ');
        put_list(&mut s, a2, put_literal);
        s.push(' ');
        match value {
            Some(f) => {
                s.push_str("1 ");
                put_formula(&mut s, f);
            }
            None => s.push('0'),
        }
        out.push(s);
    }
    out
}

// ---------------------------------------------------------------- decoding

pub(crate) fn get_funname(c: &mut Cur<'_>) -> Result<FunName, CodecError> {
    Ok(FunName(c.var()?.name().to_string()))
}

pub(crate) fn get_u64(c: &mut Cur<'_>) -> Result<u64, CodecError> {
    let n = c.int()?;
    u64::try_from(n).map_err(|_| c.err("u64 out of range"))
}

fn get_simplety(c: &mut Cur<'_>) -> Result<SimpleTy, CodecError> {
    match c.tok()? {
        "u" => Ok(SimpleTy::Unit),
        "b" => Ok(SimpleTy::Bool),
        "i" => Ok(SimpleTy::Int),
        "f" => {
            c.sep()?;
            let a = get_simplety(c)?;
            c.sep()?;
            let r = get_simplety(c)?;
            Ok(SimpleTy::Fun(Box::new(a), Box::new(r)))
        }
        t => Err(c.err(format!("bad simple-type tag {t:?}"))),
    }
}

fn get_predicate(c: &mut Cur<'_>) -> Result<Predicate, CodecError> {
    let nu = c.var()?;
    c.sep()?;
    let body = c.formula()?;
    Ok(Predicate::new(nu, body))
}

fn get_absty(c: &mut Cur<'_>) -> Result<AbsTy, CodecError> {
    match c.tok()? {
        "B" => {
            c.sep()?;
            let st = get_simplety(c)?;
            c.sep()?;
            let preds = c.list(get_predicate)?;
            Ok(AbsTy::Base(st, preds))
        }
        "F" => {
            c.sep()?;
            let x = c.var()?;
            c.sep()?;
            let a = get_absty(c)?;
            c.sep()?;
            let r = get_absty(c)?;
            Ok(AbsTy::Fun(x, Box::new(a), Box::new(r)))
        }
        t => Err(c.err(format!("bad abs-type tag {t:?}"))),
    }
}

fn get_bty(c: &mut Cur<'_>) -> Result<BTy, CodecError> {
    match c.tok()? {
        "t" => {
            c.sep()?;
            Ok(BTy::Tuple(c.count()?))
        }
        "f" => {
            c.sep()?;
            let a = get_bty(c)?;
            c.sep()?;
            let r = get_bty(c)?;
            Ok(BTy::Fun(Box::new(a), Box::new(r)))
        }
        t => Err(c.err(format!("bad boolean-type tag {t:?}"))),
    }
}

fn get_boolexpr(c: &mut Cur<'_>) -> Result<BoolExpr, CodecError> {
    match c.tok()? {
        "c0" => Ok(BoolExpr::Const(false)),
        "c1" => Ok(BoolExpr::Const(true)),
        "p" => {
            c.sep()?;
            let x = c.var()?;
            c.sep()?;
            Ok(BoolExpr::Proj(x, c.count()?))
        }
        "!" => {
            c.sep()?;
            Ok(BoolExpr::Not(Box::new(get_boolexpr(c)?)))
        }
        tag @ ("&" | "|") => {
            c.sep()?;
            let gs = c.list(get_boolexpr)?;
            Ok(if tag == "&" {
                BoolExpr::And(gs)
            } else {
                BoolExpr::Or(gs)
            })
        }
        t => Err(c.err(format!("bad boolean-expression tag {t:?}"))),
    }
}

fn get_bval(c: &mut Cur<'_>) -> Result<BVal, CodecError> {
    match c.tok()? {
        "T" => {
            c.sep()?;
            let es = c.list(get_boolexpr)?;
            Ok(BVal::Tuple(es))
        }
        "V" => {
            c.sep()?;
            Ok(BVal::Var(c.var()?))
        }
        "G" => {
            c.sep()?;
            Ok(BVal::Fun(get_funname(c)?))
        }
        "A" => {
            c.sep()?;
            let h = get_bval(c)?;
            c.sep()?;
            let args = c.list(get_bval)?;
            Ok(BVal::PApp(Box::new(h), args))
        }
        t => Err(c.err(format!("bad boolean-value tag {t:?}"))),
    }
}

fn get_bexpr(c: &mut Cur<'_>) -> Result<BExpr, CodecError> {
    match c.tok()? {
        "v" => {
            c.sep()?;
            Ok(BExpr::Value(get_bval(c)?))
        }
        "c" => {
            c.sep()?;
            let h = get_bval(c)?;
            c.sep()?;
            let args = c.list(get_bval)?;
            Ok(BExpr::Call(h, args))
        }
        "l" => {
            c.sep()?;
            let x = c.var()?;
            c.sep()?;
            let rhs = get_bexpr(c)?;
            c.sep()?;
            let body = get_bexpr(c)?;
            Ok(BExpr::Let(x, Box::new(rhs), Box::new(body)))
        }
        "s" => {
            c.sep()?;
            let l = get_bexpr(c)?;
            c.sep()?;
            let r = get_bexpr(c)?;
            Ok(BExpr::SChoice(Box::new(l), Box::new(r)))
        }
        "a" => {
            c.sep()?;
            let l = get_bexpr(c)?;
            c.sep()?;
            let r = get_bexpr(c)?;
            Ok(BExpr::AChoice(Box::new(l), Box::new(r)))
        }
        "m" => {
            c.sep()?;
            let cond = get_boolexpr(c)?;
            c.sep()?;
            let body = get_bexpr(c)?;
            Ok(BExpr::Assume(cond, Box::new(body)))
        }
        "f" => Ok(BExpr::Fail),
        t => Err(c.err(format!("bad boolean-program tag {t:?}"))),
    }
}

fn get_bdef(c: &mut Cur<'_>) -> Result<BDef, CodecError> {
    let name = get_funname(c)?;
    c.sep()?;
    let params = c.list(|c| {
        let x = c.var()?;
        c.sep()?;
        Ok((x, get_bty(c)?))
    })?;
    c.sep()?;
    let body = get_bexpr(c)?;
    Ok(BDef { name, params, body })
}

fn get_literal(c: &mut Cur<'_>) -> Result<Literal, CodecError> {
    match c.tok()? {
        "A" => {
            c.sep()?;
            Ok(Literal::Arith(c.atom()?))
        }
        "B" => {
            c.sep()?;
            let v = c.var()?;
            c.sep()?;
            match c.tok()? {
                "1" => Ok(Literal::Bool(v, true)),
                "0" => Ok(Literal::Bool(v, false)),
                t => Err(c.err(format!("bad polarity {t:?}"))),
            }
        }
        t => Err(c.err(format!("bad literal tag {t:?}"))),
    }
}

/// Decodes the body of an `E` or `R` record (the inverse of
/// [`encode_env`]) into `env`.
pub(crate) fn decode_env(tag: &str, c: &mut Cur<'_>, env: &mut AbsEnv) -> Result<(), CodecError> {
    c.sep()?;
    if tag == "E" {
        let f = get_funname(c)?;
        c.sep()?;
        let scheme = c.list(|c| {
            let x = c.var()?;
            c.sep()?;
            Ok((x, get_absty(c)?))
        })?;
        c.end()?;
        if env.schemes.insert(f, scheme).is_some() {
            return Err(c.err("duplicate scheme record"));
        }
    } else {
        let x = c.var()?;
        c.sep()?;
        let preds = c.list(get_predicate)?;
        c.end()?;
        if env.rand_sites.insert(x, preds).is_some() {
            return Err(c.err("duplicate rand-site record"));
        }
    }
    Ok(())
}

/// Decodes one record payload into `partial`; structural errors surface as
/// `CodecError` so the caller quarantines the whole file.
fn decode_into(payload: &str, partial: &mut PartialArtifact) -> Result<(), CodecError> {
    let mut c = Cur::new(payload);
    match c.tok()? {
        "H" => {
            c.sep()?;
            let main = get_funname(&mut c)?;
            c.sep()?;
            let n = c.count()?;
            c.end()?;
            if partial.header.replace((main, n)).is_some() {
                return Err(c.err("duplicate header record"));
            }
        }
        "M" => {
            c.sep()?;
            let index = c.count()?;
            c.sep()?;
            let name = get_funname(&mut c)?;
            c.sep()?;
            let body_hash = get_u64(&mut c)?;
            c.sep()?;
            let cone_hash = get_u64(&mut c)?;
            c.end()?;
            partial.defs.push((
                index,
                DefEntry {
                    name,
                    body_hash,
                    cone_hash,
                },
            ));
        }
        tag @ ("E" | "R") => decode_env(tag, &mut c, &mut partial.env)?,
        "D" => {
            c.sep()?;
            let index = c.count()?;
            c.sep()?;
            let name = get_funname(&mut c)?;
            c.sep()?;
            let fp = get_u64(&mut c)?;
            c.sep()?;
            let sat_queries = c.count()?;
            c.sep()?;
            let coercions = c.count()?;
            c.sep()?;
            let ctx_truncated = c.count()?;
            c.sep()?;
            let defs = c.list(get_bdef)?;
            c.end()?;
            partial.memo.push(MemoDefExport {
                index,
                name,
                fp,
                sat_queries,
                coercions,
                ctx_truncated,
                defs,
            });
        }
        "I" => {
            c.sep()?;
            let depth = c.count()?;
            let depth =
                u32::try_from(depth).map_err(|_| c.err("interpolation depth out of range"))?;
            c.sep()?;
            let a1 = c.list(get_literal)?;
            c.sep()?;
            let a2 = c.list(get_literal)?;
            c.sep()?;
            let value = match c.tok()? {
                "0" => None,
                "1" => {
                    c.sep()?;
                    Some(c.formula()?)
                }
                t => return Err(c.err(format!("bad interpolant presence {t:?}"))),
            };
            c.end()?;
            partial.interp.push(((a1, a2, depth), value));
        }
        t => return Err(c.err(format!("bad artifact record tag {t:?}"))),
    }
    Ok(())
}

#[derive(Default)]
struct PartialArtifact {
    header: Option<(FunName, usize)>,
    defs: Vec<(usize, DefEntry)>,
    env: AbsEnv,
    memo: Vec<MemoDefExport>,
    interp: Vec<(InterpKey, Option<Formula>)>,
}

impl Assemble for PartialArtifact {
    type Out = Artifact;

    fn add(&mut self, payload: &str) -> Result<(), CodecError> {
        decode_into(payload, self)
    }

    /// Structural validation: the manifest must be complete and contiguous.
    fn finish(mut self) -> Option<Artifact> {
        let (main, ndefs) = self.header?;
        if self.defs.len() != ndefs {
            return None;
        }
        // Sorted indices equal to their positions are exactly 0..ndefs.
        self.defs.sort_by_key(|(i, _)| *i);
        if !self.defs.iter().enumerate().all(|(i, (j, _))| i == *j) {
            return None;
        }
        Some(Artifact {
            manifest: Manifest {
                defs: self.defs.into_iter().map(|(_, d)| d).collect(),
                main,
            },
            env: self.env,
            memo: self.memo,
            interp: self.interp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homc_lang::frontend;
    use homc_smt::{Atom, LinExpr, Var};
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "homc-artifact-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_artifact() -> Artifact {
        let p = frontend(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k m",
        )
        .unwrap()
        .cps;
        let mut env = AbsEnv::initial(&p);
        // A non-trivial scheme entry and rand site so the codec's predicate
        // paths are exercised.
        let nu = Var::new("nu");
        let pred = Predicate::new(
            nu.clone(),
            Formula::Atom(Atom::le(LinExpr::constant(0), LinExpr::var("nu"))),
        );
        env.rand_sites.insert(Var::new("r1"), vec![pred.clone()]);
        let memo = vec![MemoDefExport {
            index: 0,
            name: p.defs[0].name.clone(),
            fp: 0xdead_beef,
            sat_queries: 7,
            coercions: 1,
            ctx_truncated: 0,
            defs: vec![BDef {
                name: FunName("f#0".into()),
                params: vec![(Var::new("x"), BTy::Tuple(1))],
                body: BExpr::SChoice(
                    Box::new(BExpr::Assume(
                        BoolExpr::Proj(Var::new("x"), 0),
                        Box::new(BExpr::Fail),
                    )),
                    Box::new(BExpr::Value(BVal::Tuple(vec![]))),
                ),
            }],
        }];
        let interp = vec![
            (
                (
                    vec![Literal::Arith(Atom::le(LinExpr::var("a"), LinExpr::constant(3)))],
                    vec![Literal::Bool(Var::new("b"), false)],
                    24,
                ),
                Some(Formula::Atom(Atom::le(LinExpr::var("a"), LinExpr::constant(3)))),
            ),
            ((vec![], vec![], 0), None),
        ];
        Artifact {
            manifest: Manifest::of(&p),
            env,
            memo,
            interp,
        }
    }

    #[test]
    fn publish_then_load_roundtrips() {
        let dir = tmpdir("roundtrip");
        let store = ArtifactStore::new(&dir);
        let art = sample_artifact();
        store.publish("l-zipmap", &art).unwrap();
        let back = store.load("l-zipmap").unwrap().artifact.expect("artifact present");
        assert_eq!(back.manifest, art.manifest);
        assert_eq!(back.env.schemes, art.env.schemes);
        assert_eq!(back.env.rand_sites.len(), art.env.rand_sites.len());
        assert_eq!(back.memo.len(), art.memo.len());
        assert_eq!(back.memo[0].fp, art.memo[0].fp);
        assert_eq!(
            format!("{:?}", back.memo[0].defs),
            format!("{:?}", art.memo[0].defs)
        );
        assert_eq!(back.interp.len(), art.interp.len());
        assert_eq!(back.interp[0].0, art.interp[0].0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_use_distinct_files() {
        let store = ArtifactStore::new("x");
        assert_ne!(store.path_for("a/b"), store.path_for("a_b"));
        assert_ne!(store.path_for("p"), store.path_for("q"));
    }

    #[test]
    fn missing_artifact_is_none() {
        let dir = tmpdir("missing");
        let store = ArtifactStore::new(&dir);
        let miss = store.load("nothing").unwrap();
        assert!(miss.artifact.is_none());
        assert!(!miss.quarantined);
    }

    #[test]
    fn any_byte_flip_quarantines_whole_file() {
        let dir = tmpdir("byteflip");
        let art = sample_artifact();
        // Flip a payload byte (inside the first record, past the header and
        // frame fields) — the checksum must reject the file wholesale.
        let metrics = Metrics::new(true);
        let store = ArtifactStore::new(&dir).with_metrics(metrics.clone());
        let path = store.publish("k", &art).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let off = ARTIFACT_MAGIC.len() + 4 + 26 + 2;
        bytes[off] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let load = store.load("k").unwrap();
        assert!(load.artifact.is_none());
        assert!(load.quarantined);
        assert!(!path.exists(), "corrupt artifact file renamed away");
        let mut q = path.as_os_str().to_owned();
        q.push(".quarantined");
        assert!(PathBuf::from(q).exists());
        assert_eq!(metrics.snapshot().counter(Counter::ArtifactQuarantine), 1);
        // Quarantined files are never re-read: the next load is a clean miss.
        assert!(!store.load("k").unwrap().quarantined);
        assert_eq!(metrics.snapshot().counter(Counter::ArtifactQuarantine), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_cold_starts_without_quarantine() {
        let dir = tmpdir("stale");
        fs::create_dir_all(&dir).unwrap();
        let metrics = Metrics::new(true);
        let store = ArtifactStore::new(&dir).with_metrics(metrics.clone());
        fs::write(store.path_for("k"), "homc-artifact v999\n").unwrap();
        let load = store.load("k").unwrap();
        assert!(load.artifact.is_none());
        assert!(!load.quarantined);
        assert!(!store.path_for("k").exists(), "stale artifact removed");
        assert_eq!(metrics.snapshot().counter(Counter::ArtifactQuarantine), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_manifest_is_corrupt() {
        let dir = tmpdir("structural");
        let store = ArtifactStore::new(&dir);
        let art = sample_artifact();
        let path = store.publish("k", &art).unwrap();
        // Drop the last record line (could be any; the manifest def count
        // no longer matches the header if an M record goes, and a missing
        // header is corrupt outright). Removing the *first* record (H) is
        // the strongest case.
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1);
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let load = store.load("k").unwrap();
        assert!(load.artifact.is_none());
        assert!(load.quarantined);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
