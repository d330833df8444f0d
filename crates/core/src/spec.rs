//! Spec strings and registries: one design for every experiment axis.
//!
//! The paper's evaluation is a product of algorithms × workloads ×
//! fairness measures, and each axis is addressed by spec strings of one
//! grammar: schedulers (`rand:perms=15`), workloads
//! (`synth:preset=ricc,scale=0.5`) and metrics (`delay:norm=ideal`).
//! Experiment matrices are pure data built from these strings, so the
//! grammar, the spec type and the registry are defined here once:
//!
//! * [`SpecBody`] — the parsed, canonical `name[:key=value,...]` form.
//! * [`Spec<K>`] — a [`SpecBody`] tagged with its axis `K`, so a workload
//!   spec cannot be passed where a scheduler spec is expected, and with
//!   parse and parameter errors worded in the axis's own error type.
//! * [`Registry<K>`] — the name → factory map of one axis: registration,
//!   lookup, `build`/`build_str`, the help listing and the conformance
//!   surface.
//! * [`SpecKind`] — what an axis supplies: its error type (built from
//!   the shared [`SpecFailure`]s, in the axis's own wording), its
//!   object-safe factory trait (a subtrait of [`Factory<K>`], which
//!   carries the metadata every factory declares), what a build reads and
//!   returns, its built-in factories, and its process-wide
//!   [`Registry::shared`] instance.
//!
//! The axes are `SchedulerKind` (`fairsched_core::scheduler`),
//! `WorkloadKind` (`fairsched_workloads`) and `MetricKind`
//! (`fairsched_sim`); `SchedulerSpec`, `WorkloadSpec` and `MetricSpec`
//! name `Spec<K>` and `Registry`, `WorkloadRegistry` and `MetricRegistry`
//! name `Registry<K>` for them.
//!
//! Grammar: `name` or `name:key=value,key=value`. Names and keys are
//! lowercase identifiers (`[a-z0-9_-]`); values are non-empty. The
//! structural characters `%`, `,`, `=` and ASCII whitespace are
//! percent-escaped inside values (`%25`, `%2c`, `%3d`, `%20`, …), so
//! arbitrary strings — e.g. SWF archive paths containing commas —
//! round-trip: [`SpecBody::with`] stores the raw value, `Display`
//! escapes it, and `FromStr` unescapes. Parameters
//! are kept sorted by key, so `Display` output is canonical and
//! `FromStr` ∘ `Display` is the identity on canonical strings.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;
use std::str::FromStr;

/// Whether `s` is a valid spec name / parameter key.
pub fn valid_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "-_".contains(c))
}

/// Percent-escapes the characters the grammar cannot carry raw inside a
/// parameter value: the structural `%`/`,`/`=` (→ `%25`/`%2c`/`%3d`) and
/// ASCII whitespace (space/tab/LF/CR → `%20`/`%09`/`%0a`/`%0d`, which the
/// whole-spec `trim` in `FromStr` would otherwise strip). Everything else
/// passes through, so `unescape_value(&escape_value(v)) == v` for every
/// string.
pub fn escape_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '%' => out.push_str("%25"),
            ',' => out.push_str("%2c"),
            '=' => out.push_str("%3d"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0a"),
            '\r' => out.push_str("%0d"),
            c => out.push(c),
        }
    }
    out
}

/// Undoes [`escape_value`]. Only the escapes the grammar emits (`%25`,
/// `%2c`, `%3d`, `%20`, `%09`, `%0a`, `%0d`, case-insensitive) are
/// accepted; any other use of `%` is an error, keeping parse ∘ display
/// exact.
pub fn unescape_value(raw: &str) -> Result<String, String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let pair: String = chars.by_ref().take(2).collect();
        match pair.to_ascii_lowercase().as_str() {
            "25" => out.push('%'),
            "2c" => out.push(','),
            "3d" => out.push('='),
            "20" => out.push(' '),
            "09" => out.push('\t'),
            "0a" => out.push('\n'),
            "0d" => out.push('\r'),
            _ => {
                return Err(format!(
                    "invalid percent-escape \"%{pair}\" (defined: %25 %2c %3d %20 %09 %0a %0d)"
                ))
            }
        }
    }
    Ok(out)
}

/// The failures every axis shares, before any axis wording: each axis's
/// error type converts them (`From<SpecFailure>`) into its own variants
/// and messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecFailure {
    /// The spec string was empty.
    Empty,
    /// The spec string does not follow `name[:key=value,...]`.
    BadSyntax {
        /// The offending input.
        spec: String,
        /// What was wrong with it.
        reason: String,
    },
    /// No factory is registered under the requested name.
    UnknownName {
        /// The requested name.
        name: String,
        /// Registered names, sorted.
        known: Vec<String>,
    },
    /// The named factory does not accept this parameter.
    UnknownParam {
        /// The factory name.
        name: String,
        /// The rejected parameter key.
        param: String,
        /// Keys the factory accepts.
        accepted: Vec<String>,
    },
    /// A parameter value failed to parse or violated a constraint.
    BadParam {
        /// The factory name.
        name: String,
        /// The parameter key.
        param: String,
        /// What was wrong with the value.
        reason: String,
    },
}

/// The parsed form shared by every spec type: a registry name plus sorted
/// string parameters, with a canonical textual rendering.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpecBody {
    name: String,
    params: BTreeMap<String, String>,
}

impl SpecBody {
    /// A parameterless spec.
    pub fn bare(name: impl Into<String>) -> Self {
        let name = name.into();
        debug_assert!(valid_ident(&name), "invalid spec name {name:?}");
        SpecBody { name, params: BTreeMap::new() }
    }

    /// Adds or replaces a parameter (builder style). The value is stored
    /// raw; `Display` percent-escapes the structural characters
    /// `%`/`,`/`=` (as `%25`/`%2c`/`%3d`) so any non-empty value —
    /// archive paths with commas included — survives the
    /// `Display`/`FromStr` (and serde) round trip.
    ///
    /// # Panics
    /// Panics if the key is not a lowercase identifier or the rendered
    /// value is empty.
    pub fn with(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        let key = key.into();
        assert!(valid_ident(&key), "invalid spec param key {key:?}");
        let value = value.to_string();
        assert!(!value.is_empty(), "empty spec param value for key {key:?}");
        self.params.insert(key, value);
        self
    }

    /// The registry name this spec selects.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All parameters, sorted by key.
    pub fn params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// A raw parameter value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }

    /// Rejects parameters outside `accepted` (factories call this first so
    /// typos fail loudly instead of silently using defaults).
    pub fn deny_unknown_params(&self, accepted: &[&str]) -> Result<(), SpecFailure> {
        for key in self.params.keys() {
            if !accepted.contains(&key.as_str()) {
                return Err(SpecFailure::UnknownParam {
                    name: self.name.clone(),
                    param: key.clone(),
                    accepted: accepted.iter().map(|s| s.to_string()).collect(),
                });
            }
        }
        Ok(())
    }

    /// A typed parameter with a default.
    pub fn parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, SpecFailure> {
        match self.params.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| SpecFailure::BadParam {
                name: self.name.clone(),
                param: key.to_string(),
                reason: format!("cannot parse {raw:?} as {}", std::any::type_name::<T>()),
            }),
        }
    }
}

impl fmt::Display for SpecBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for (i, (k, v)) in self.params.iter().enumerate() {
            write!(f, "{}{k}={}", if i == 0 { ':' } else { ',' }, escape_value(v))?;
        }
        Ok(())
    }
}

impl FromStr for SpecBody {
    type Err = SpecFailure;

    fn from_str(s: &str) -> Result<Self, SpecFailure> {
        // Trim exactly the whitespace [`escape_value`] escapes (space,
        // tab, LF, CR) — trimming more would strip value characters the
        // renderer passed through raw and break the round trip.
        let s = s.trim_matches([' ', '\t', '\n', '\r']);
        if s.is_empty() {
            return Err(SpecFailure::Empty);
        }
        let bad = |reason: &str| SpecFailure::BadSyntax {
            spec: s.to_string(),
            reason: reason.to_string(),
        };
        let (name, rest) = match s.split_once(':') {
            None => (s, None),
            Some((name, rest)) => (name, Some(rest)),
        };
        if !valid_ident(name) {
            return Err(bad("name must be a lowercase identifier"));
        }
        let mut params = BTreeMap::new();
        if let Some(rest) = rest {
            if rest.is_empty() {
                return Err(bad("trailing ':' without parameters"));
            }
            for pair in rest.split(',') {
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| bad("parameters must look like key=value"))?;
                if !valid_ident(key) {
                    return Err(bad("parameter keys must be lowercase identifiers"));
                }
                if value.is_empty() {
                    return Err(bad("parameter values must be non-empty"));
                }
                let value = unescape_value(value).map_err(|reason| bad(&reason))?;
                if params.insert(key.to_string(), value).is_some() {
                    return Err(bad("duplicate parameter key"));
                }
            }
        }
        Ok(SpecBody { name: name.to_string(), params })
    }
}

/// One experiment axis: everything [`Spec<K>`] and [`Registry<K>`] need
/// to know about it. Implemented by an uninhabited marker type per axis,
/// which derives the traits `Spec<K>` derives.
pub trait SpecKind: Copy + fmt::Debug + Eq + Ord + Hash + Send + Sync + 'static {
    /// The public name of the axis's spec type (`SchedulerSpec`, …), named
    /// in deserialization errors.
    const SPEC_TYPE: &'static str;
    /// Why a spec string or a build from one was rejected.
    type Error: std::error::Error + From<SpecFailure>;
    /// The axis's object-safe factory trait, as a trait object.
    type Factory: ?Sized + Factory<Self>;
    /// What a build reads besides the spec.
    type Ctx<'a>;
    /// What a build produces.
    type Output;

    /// Builds through one factory: the axis trait's build method.
    fn run(
        factory: &Self::Factory,
        spec: &Spec<Self>,
        ctx: &Self::Ctx<'_>,
    ) -> Result<Self::Output, Self::Error>;
    /// Registers the axis's built-in factories (what
    /// [`Registry::default`] holds).
    fn builtins(registry: &mut Registry<Self>);
    /// The process-wide default registry (see [`Registry::shared`]).
    fn shared() -> &'static Registry<Self>;
}

/// What every factory of every axis declares. Each axis's factory trait
/// (`SchedulerFactory`, `WorkloadFactory`, `MetricFactory`) extends it
/// with its build method.
pub trait Factory<K: SpecKind>: Send + Sync {
    /// The registry name (what spec strings select).
    fn name(&self) -> &str;

    /// One-line human description, shown in CLI help.
    fn summary(&self) -> &str;

    /// Parameter keys this factory accepts (for error messages and docs).
    fn accepted_params(&self) -> &[&str] {
        &[]
    }

    /// Representative specs that must build in any environment. The
    /// conformance harness (`tests/spec_conformance.rs`) runs every one of
    /// them through the common contract and the axis's own checks, and
    /// fails factories that declare none.
    fn conformance_specs(&self) -> Vec<Spec<K>>;
}

/// A parsed spec of axis `K`: a registry name plus string parameters,
/// with the canonical textual form of [`SpecBody`] and errors in the
/// axis's own type. Serializes (with the `serde` feature) as that string.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Spec<K> {
    body: SpecBody,
    kind: PhantomData<K>,
}

impl<K: SpecKind> Spec<K> {
    /// A parameterless spec.
    pub fn bare(name: impl Into<String>) -> Self {
        Spec { body: SpecBody::bare(name), kind: PhantomData }
    }

    /// Adds or replaces a parameter (builder style); see
    /// [`SpecBody::with`].
    ///
    /// # Panics
    /// Panics if the key is not a lowercase identifier or the rendered
    /// value is empty.
    pub fn with(self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        Spec { body: self.body.with(key, value), ..self }
    }

    /// The registry name this spec selects.
    pub fn name(&self) -> &str {
        self.body.name()
    }

    /// All parameters, sorted by key.
    pub fn params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.body.params()
    }

    /// A raw parameter value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.body.get(key)
    }

    /// A raw parameter value the factory has no default for.
    pub fn required(&self, key: &str) -> Result<&str, K::Error> {
        self.get(key).ok_or_else(|| self.bad_param(key, "required parameter is missing"))
    }

    /// Rejects parameters outside `accepted` (factories call this first so
    /// typos fail loudly instead of silently using defaults).
    pub fn deny_unknown_params(&self, accepted: &[&str]) -> Result<(), K::Error> {
        Ok(self.body.deny_unknown_params(accepted)?)
    }

    /// A typed parameter with a default.
    pub fn parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, K::Error> {
        Ok(self.body.parsed(key, default)?)
    }

    /// A helper for range/constraint violations discovered by factories.
    pub fn bad_param(&self, key: &str, reason: impl Into<String>) -> K::Error {
        let name = self.name().to_string();
        SpecFailure::BadParam { name, param: key.to_string(), reason: reason.into() }
            .into()
    }

    /// Parses a comma-separated spec list as the CLI's `--metrics` flag
    /// accepts it (`delay,psi`, `delay:norm=ideal,stretch`). A segment
    /// that looks like a bare `key=value` continuation (no `:` of its
    /// own) is glued onto the previous spec, so multi-parameter specs
    /// survive the outer comma split.
    pub fn parse_list(text: &str) -> Result<Vec<Self>, K::Error> {
        let mut pieces: Vec<String> = Vec::new();
        for segment in text.split(',') {
            match pieces.last_mut() {
                Some(last) if segment.contains('=') && !segment.contains(':') => {
                    last.push(',');
                    last.push_str(segment);
                }
                _ => pieces.push(segment.to_string()),
            }
        }
        pieces.iter().map(|p| p.parse()).collect()
    }
}

impl<K> fmt::Display for Spec<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.body.fmt(f)
    }
}

impl<K: SpecKind> FromStr for Spec<K> {
    type Err = K::Error;

    fn from_str(s: &str) -> Result<Self, K::Error> {
        Ok(Spec { body: s.parse()?, kind: PhantomData })
    }
}

#[cfg(feature = "serde")]
impl<K: SpecKind> serde::Serialize for Spec<K> {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

#[cfg(feature = "serde")]
impl<K: SpecKind> serde::Deserialize for Spec<K> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::String(s) => {
                s.parse().map_err(|e: K::Error| serde::DeError(e.to_string()))
            }
            _ => Err(serde::DeError::expected("string", K::SPEC_TYPE)),
        }
    }
}

/// The name → factory map of axis `K`.
///
/// [`Registry::default`] holds the axis's built-in factories and
/// [`Registry::shared`] is the process-wide instance of it; use
/// [`Registry::new`] + [`Registry::register`] for a curated set, or
/// `register` on a default registry to add downstream factories.
pub struct Registry<K: SpecKind> {
    factories: BTreeMap<String, Box<K::Factory>>,
}

impl<K: SpecKind> Registry<K> {
    /// An empty registry.
    pub fn new() -> Self {
        Registry { factories: BTreeMap::new() }
    }

    /// The process-wide default registry, built once on first use.
    /// Factories are `Send + Sync`, so sessions, the CLI and the runners
    /// all resolve through it instead of rebuilding
    /// [`Registry::default`] per call.
    pub fn shared() -> &'static Self {
        K::shared()
    }

    /// Registers a factory, replacing any previous one of the same name
    /// (last registration wins, so downstream crates can override
    /// built-ins) and returning the replaced factory if any.
    pub fn register(&mut self, factory: Box<K::Factory>) -> Option<Box<K::Factory>> {
        let name = factory.name().to_string();
        debug_assert!(valid_ident(&name), "invalid factory name {name:?}");
        self.factories.insert(name, factory)
    }

    /// The factory registered under `name`.
    pub fn get(&self, name: &str) -> Option<&K::Factory> {
        self.factories.get(name).map(Box::as_ref)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.factories.keys().map(String::as_str)
    }

    /// Every factory's conformance specs, keyed by factory name: the
    /// iteration surface of the conformance harness.
    pub fn conformance_specs(&self) -> Vec<(String, Vec<Spec<K>>)> {
        self.factories
            .iter()
            .map(|(name, f)| (name.clone(), f.conformance_specs()))
            .collect()
    }

    /// Builds from a parsed spec: one map lookup plus one call of the
    /// selected factory.
    pub fn build(&self, spec: &Spec<K>, ctx: &K::Ctx<'_>) -> Result<K::Output, K::Error> {
        let factory = self.get(spec.name()).ok_or_else(|| SpecFailure::UnknownName {
            name: spec.name().to_string(),
            known: self.names().map(str::to_string).collect(),
        })?;
        K::run(factory, spec, ctx)
    }

    /// Parses and builds in one step.
    pub fn build_str(&self, spec: &str, ctx: &K::Ctx<'_>) -> Result<K::Output, K::Error> {
        self.build(&spec.parse::<Spec<K>>()?, ctx)
    }

    /// A help listing: one `name — summary [params]` line per factory.
    pub fn help(&self) -> String {
        let mut out = String::new();
        for f in self.factories.values() {
            out.push_str(&format!("  {:<14} {}", f.name(), f.summary()));
            if !f.accepted_params().is_empty() {
                out.push_str(&format!(" (params: {})", f.accepted_params().join(", ")));
            }
            out.push('\n');
        }
        out
    }
}

impl<K: SpecKind> Default for Registry<K> {
    /// A registry holding the axis's built-in factories.
    fn default() -> Self {
        let mut registry = Registry::new();
        K::builtins(&mut registry);
        registry
    }
}

impl<K: SpecKind> fmt::Debug for Registry<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

/// A closure-backed factory: how the built-ins of every axis are defined.
/// Each axis implements its factory trait for `FnFactory<ItsKind, F>`,
/// rejecting parameters outside `accepted` before calling `build`.
pub struct FnFactory<K: SpecKind, F> {
    /// The registry name.
    pub name: &'static str,
    /// One-line human description.
    pub summary: &'static str,
    /// Accepted parameter keys.
    pub accepted: &'static [&'static str],
    /// The conformance specs.
    pub conformance: fn() -> Vec<Spec<K>>,
    /// The build closure (or, for axes whose factories declare more, a
    /// value carrying it).
    pub build: F,
}

impl<K: SpecKind, F: Send + Sync> Factory<K> for FnFactory<K, F> {
    fn name(&self) -> &str {
        self.name
    }

    fn summary(&self) -> &str {
        self.summary
    }

    fn accepted_params(&self) -> &[&str] {
        self.accepted
    }

    fn conformance_specs(&self) -> Vec<Spec<K>> {
        (self.conformance)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_bare_and_parameterized() {
        let s: SpecBody = "ref".parse().unwrap();
        assert_eq!(s.name(), "ref");
        assert_eq!(s.params().count(), 0);

        let s: SpecBody = "synth:preset=ricc,scale=0.5".parse().unwrap();
        assert_eq!(s.name(), "synth");
        assert_eq!(s.get("preset"), Some("ricc"));
        assert_eq!(s.get("scale"), Some("0.5"));
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        for text in ["fpt:k=8", "synth:orgs=5,preset=lpc,scale=0.1", "swf:path=/a/b"] {
            let spec: SpecBody = text.parse().unwrap();
            assert_eq!(spec.to_string(), text);
            let again: SpecBody = spec.to_string().parse().unwrap();
            assert_eq!(again, spec);
        }
        // Parameters sort into canonical order.
        let spec: SpecBody = "synth:scale=0.1,preset=lpc".parse().unwrap();
        assert_eq!(spec.to_string(), "synth:preset=lpc,scale=0.1");
    }

    #[test]
    fn rejects_malformed() {
        for text in ["", " ", "Ref", "x:", "x:k", "x:k=", "a b", "x:k=1,k=2", "x:=1"] {
            assert!(text.parse::<SpecBody>().is_err(), "{text:?} should not parse");
        }
    }

    #[test]
    fn param_helpers() {
        let s: SpecBody = "fpt:k=8".parse().unwrap();
        assert_eq!(s.parsed("k", 0usize).unwrap(), 8);
        assert_eq!(s.parsed("horizon", 2_000u64).unwrap(), 2_000);
        assert!(matches!(
            s.deny_unknown_params(&["horizon"]),
            Err(SpecFailure::UnknownParam { .. })
        ));
        let bad: SpecBody = "fpt:k=eight".parse().unwrap();
        assert!(matches!(bad.parsed("k", 0usize), Err(SpecFailure::BadParam { .. })));
    }

    #[test]
    #[should_panic(expected = "empty spec param value")]
    fn with_rejects_empty_values() {
        let _ = SpecBody::bare("x").with("k", "");
    }

    #[test]
    #[should_panic(expected = "invalid spec param key")]
    fn with_rejects_bad_keys() {
        let _ = SpecBody::bare("x").with("K!", 1);
    }

    #[test]
    fn reserved_characters_escape_and_round_trip() {
        let spec = SpecBody::bare("swf").with("path", "/a,b=c/100%.swf");
        assert_eq!(spec.to_string(), "swf:path=/a%2cb%3dc/100%25.swf");
        let back: SpecBody = spec.to_string().parse().unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.get("path"), Some("/a,b=c/100%.swf"));
        // Canonical fixpoint: re-rendering the reparsed spec is stable.
        assert_eq!(back.to_string(), spec.to_string());
        // Upper-case escapes are accepted on input, lower-case on output.
        let upper: SpecBody = "swf:path=/a%2Cb%3Dc/100%25.swf".parse().unwrap();
        assert_eq!(upper, spec);
    }

    #[test]
    fn exotic_whitespace_values_round_trip() {
        // FromStr trims only the four escaped ASCII whitespace chars, so
        // values carrying other (unescaped) whitespace — vertical tab,
        // form feed, NBSP — pass through raw and round-trip, even at the
        // value edges or as the entire value.
        for value in ["a\u{000B}", "\u{000C}", "\u{00A0}padded\u{00A0}", "x y\u{000B}"] {
            let spec = SpecBody::bare("x").with("k", value);
            let back: SpecBody = spec.to_string().parse().unwrap();
            assert_eq!(back.get("k"), Some(value), "value {value:?} did not round-trip");
            assert_eq!(back.to_string(), spec.to_string());
        }
        // Escaped ASCII whitespace still survives trimming positions.
        let spec = SpecBody::bare("x").with("k", " lead and trail ");
        assert_eq!(spec.to_string(), "x:k=%20lead%20and%20trail%20");
        let back: SpecBody = spec.to_string().parse().unwrap();
        assert_eq!(back.get("k"), Some(" lead and trail "));
    }

    #[test]
    fn malformed_percent_escapes_are_rejected() {
        for text in ["x:k=100%", "x:k=%2", "x:k=%zz", "x:k=a%41b"] {
            assert!(
                matches!(text.parse::<SpecBody>(), Err(SpecFailure::BadSyntax { .. })),
                "{text:?} should not parse"
            );
        }
    }

    proptest! {
        /// escape ∘ parse identity: any value built from the alphabet
        /// (reserved characters included) survives the render/reparse
        /// round trip exactly.
        #[test]
        fn prop_escape_parse_identity(
            picks in proptest::collection::vec(0usize..12, 1..40)
        ) {
            const ALPHABET: [char; 12] =
                ['a', 'z', '0', '9', '/', '.', '-', '_', '%', ',', '=', ' '];
            let raw: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            prop_assert_eq!(unescape_value(&escape_value(&raw)).unwrap(), raw.clone());
            let spec = SpecBody::bare("x").with("k", &raw);
            let back: SpecBody = spec.to_string().parse().unwrap();
            prop_assert_eq!(back.get("k"), Some(raw.as_str()));
            prop_assert_eq!(back.to_string(), spec.to_string());
        }
    }

    /// A toy axis: the generic spec and registry are tested once here for
    /// all three real ones.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum Toy {}

    #[derive(Debug, PartialEq)]
    struct ToyError(SpecFailure);

    impl fmt::Display for ToyError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{:?}", self.0)
        }
    }

    impl std::error::Error for ToyError {}

    impl From<SpecFailure> for ToyError {
        fn from(e: SpecFailure) -> ToyError {
            ToyError(e)
        }
    }

    trait ToyFactory: Factory<Toy> {
        fn build(&self, spec: &Spec<Toy>, ctx: &u32) -> Result<u32, ToyError>;
    }

    impl<F> ToyFactory for FnFactory<Toy, F>
    where
        F: Fn(&Spec<Toy>, &u32) -> Result<u32, ToyError> + Send + Sync,
    {
        fn build(&self, spec: &Spec<Toy>, ctx: &u32) -> Result<u32, ToyError> {
            spec.deny_unknown_params(self.accepted)?;
            (self.build)(spec, ctx)
        }
    }

    fn scaler(name: &'static str, factor: u32) -> Box<dyn ToyFactory> {
        Box::new(FnFactory {
            name,
            summary: "scales the context",
            accepted: &["plus"],
            conformance: || vec![Spec::bare("double")],
            build: move |spec: &Spec<Toy>, n: &u32| -> Result<u32, ToyError> {
                Ok(factor * n + spec.parsed("plus", 0)?)
            },
        })
    }

    impl SpecKind for Toy {
        const SPEC_TYPE: &'static str = "ToySpec";
        type Error = ToyError;
        type Factory = dyn ToyFactory;
        type Ctx<'a> = u32;
        type Output = u32;

        fn run(f: &dyn ToyFactory, spec: &Spec<Toy>, ctx: &u32) -> Result<u32, ToyError> {
            f.build(spec, ctx)
        }
        fn builtins(registry: &mut Registry<Toy>) {
            registry.register(scaler("double", 2));
        }
        fn shared() -> &'static Registry<Toy> {
            static SHARED: std::sync::OnceLock<Registry<Toy>> =
                std::sync::OnceLock::new();
            SHARED.get_or_init(Registry::default)
        }
    }

    #[test]
    fn registry_builds_through_the_selected_factory() {
        let registry = Registry::<Toy>::shared();
        assert!(std::ptr::eq(registry, Registry::<Toy>::shared()), "one shared instance");
        assert_eq!(registry.build_str("double", &5), Ok(10));
        assert_eq!(registry.build(&Spec::bare("double").with("plus", 1), &5), Ok(11));
        assert_eq!(
            registry.conformance_specs(),
            vec![("double".to_string(), vec![Spec::bare("double")])]
        );
    }

    #[test]
    fn failures_convert_into_the_kind_error() {
        let registry = Registry::<Toy>::default();
        let err = |text: &str| registry.build_str(text, &1).unwrap_err().0;
        assert_eq!(err(""), SpecFailure::Empty);
        assert!(matches!(err("double:"), SpecFailure::BadSyntax { .. }));
        let known = vec!["double".to_string()];
        assert_eq!(
            err("triple"),
            SpecFailure::UnknownName { name: "triple".into(), known }
        );
        let double = Spec::<Toy>::bare("double");
        let err = |spec: Spec<Toy>| registry.build(&spec, &1).unwrap_err().0;
        assert_eq!(
            err(double.clone().with("minus", 1)),
            SpecFailure::UnknownParam {
                name: "double".into(),
                param: "minus".into(),
                accepted: vec!["plus".into()]
            }
        );
        assert!(matches!(
            err(double.clone().with("plus", "x")),
            SpecFailure::BadParam { .. }
        ));
        assert_eq!(
            double.bad_param("plus", "why").0,
            SpecFailure::BadParam {
                name: "double".into(),
                param: "plus".into(),
                reason: "why".into()
            }
        );
    }

    #[test]
    fn registration_extends_and_overrides() {
        let mut registry = Registry::<Toy>::default();
        assert!(registry.register(scaler("triple", 3)).is_none());
        assert_eq!(registry.names().collect::<Vec<_>>(), ["double", "triple"]);
        assert_eq!(registry.build_str("triple", &2), Ok(6));
        // Same-name registration replaces (and hands back) the old factory.
        let old = registry.register(scaler("double", 4)).expect("replaced");
        assert_eq!(old.build(&Spec::bare("double"), &1), Ok(2));
        assert_eq!(registry.build_str("double", &1), Ok(4));
        assert!(Registry::<Toy>::new().get("double").is_none());
        assert_eq!(
            format!("{registry:?}"),
            r#"Registry { names: ["double", "triple"] }"#
        );
    }

    #[test]
    fn help_lists_every_factory_with_its_params() {
        assert_eq!(
            Registry::<Toy>::default().help(),
            "  double         scales the context (params: plus)\n"
        );
    }

    #[test]
    fn parse_list_splits_and_glues_parameters() {
        let specs = Spec::<Toy>::parse_list("delay,psi").unwrap();
        assert_eq!(specs, [Spec::bare("delay"), Spec::bare("psi")]);
        // lint:allow(spec-literal) a comma-joined list, not one spec
        let specs = Spec::<Toy>::parse_list("timeline:stat=ptot,samples=8,psi").unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].to_string(), "timeline:samples=8,stat=ptot");
        assert_eq!(specs[1].to_string(), "psi");
        assert!(Spec::<Toy>::parse_list("delay,,psi").is_err());
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_round_trip_is_the_spec_string() {
        use serde::{Deserialize, Serialize};
        let spec = Spec::<Toy>::bare("double").with("plus", 15);
        let v = spec.to_value();
        assert_eq!(v, serde::Value::String(spec.to_string()));
        assert_eq!(Spec::<Toy>::from_value(&v).unwrap(), spec);
        let err = Spec::<Toy>::from_value(&serde::Value::Number("3".into())).unwrap_err();
        assert_eq!(err.0, "expected string for ToySpec");
    }
}
