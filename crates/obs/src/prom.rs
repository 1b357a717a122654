//! Prometheus text exposition: a small writer and a small parser.
//!
//! The writer produces the text format version 0.0.4 (`# HELP` /
//! `# TYPE` headers, `name{label="value"} 1234` samples) that any
//! Prometheus-compatible scraper ingests; `mo-serve`'s `/metrics`
//! endpoint renders its snapshot through it. The parser implements just
//! enough of the same grammar to validate an exposition end-to-end in
//! tests — names, label sets, float values, histogram-bucket
//! monotonicity — without pulling a dependency into the tree.

use std::fmt::{Display, Write as _};

use crate::hist::{bucket_upper, Log2Hist};

/// Incremental builder for one exposition document.
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
}

impl PromText {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a counter family: writes its `# HELP` / `# TYPE` header once
    /// and returns the handle its samples are written through, so the
    /// family name is spelled in one place.
    pub fn counter<'a>(&'a mut self, name: &'a str, help: &str) -> Family<'a> {
        self.family(name, help, "counter")
    }

    /// Open a gauge family (see [`counter`](Self::counter)).
    pub fn gauge<'a>(&'a mut self, name: &'a str, help: &str) -> Family<'a> {
        self.family(name, help, "gauge")
    }

    /// Open a histogram family (see [`counter`](Self::counter)); its
    /// series are written with [`Family::hist`].
    pub fn histogram<'a>(&'a mut self, name: &'a str, help: &str) -> Family<'a> {
        self.family(name, help, "histogram")
    }

    fn family<'a>(&'a mut self, name: &'a str, help: &str, kind: &str) -> Family<'a> {
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
        Family { doc: self, name }
    }

    /// Emit one sample line outside any family header — for re-emitting
    /// samples parsed from another exposition (the fleet view prepends a
    /// `shard` label to every shard's samples this way).
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.line(name, "", labels, value);
    }

    fn line(&mut self, family: &str, suffix: &str, labels: &[(&str, &str)], value: impl Display) {
        self.buf.push_str(family);
        self.buf.push_str(suffix);
        if !labels.is_empty() {
            self.buf.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                // The exposition format requires `\`, `"` and newline
                // escaped inside label values (kernel/scenario names
                // are caller-controlled strings).
                let _ = write!(self.buf, "{k}=\"");
                for ch in v.chars() {
                    match ch {
                        '\\' => self.buf.push_str("\\\\"),
                        '"' => self.buf.push_str("\\\""),
                        '\n' => self.buf.push_str("\\n"),
                        c => self.buf.push(c),
                    }
                }
                self.buf.push('"');
            }
            self.buf.push('}');
        }
        let _ = writeln!(self.buf, " {value}");
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// One open metric family of a [`PromText`] document: every sample
/// written through it carries the family's name.
#[derive(Debug)]
pub struct Family<'a> {
    doc: &'a mut PromText,
    name: &'a str,
}

impl Family<'_> {
    /// Emit one sample with an integer value.
    pub fn u64(&mut self, labels: &[(&str, &str)], value: u64) -> &mut Self {
        self.doc.line(self.name, "", labels, value);
        self
    }

    /// Emit one sample with a float value.
    pub fn f64(&mut self, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.doc.line(self.name, "", labels, value);
        self
    }

    /// Emit one full histogram series (`_bucket` lines, `_sum`,
    /// `_count`) from a [`Log2Hist`]: bucket `i` counts observations in
    /// `(2^(i-1), 2^i]` native units, so its cumulative count goes out
    /// under an inclusive `le = 2^i`; the last bucket is open-ended
    /// (`+Inf`). `le` and `_sum` are rendered in seconds by dividing
    /// through `units_per_second` (`1e6` for a µs histogram, `1e9` for
    /// ns). Every log₂ histogram in the tree renders (and validates)
    /// through here.
    pub fn hist(
        &mut self,
        labels: &[(&str, &str)],
        h: &Log2Hist,
        units_per_second: f64,
    ) -> &mut Self {
        let mut cum = 0u64;
        for (i, c) in h.buckets.iter().enumerate() {
            cum += c;
            let le = bucket_upper(i).map_or("+Inf".to_string(), |upper| {
                format!("{}", upper as f64 / units_per_second)
            });
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            ls.push(("le", &le));
            self.doc.line(self.name, "_bucket", &ls, cum);
        }
        let sum = h.sum as f64 / units_per_second;
        self.doc.line(self.name, "_sum", labels, sum);
        self.doc.line(self.name, "_count", labels, cum);
        self
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label pairs in document order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse a text exposition. Returns every sample, or the first
/// offending line. Comment lines must be well-formed `# HELP` or
/// `# TYPE` lines; label values must be unescaped quoted strings.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            let ok = ["HELP", "TYPE"].iter().any(|kw| {
                rest.strip_prefix(kw)
                    .and_then(|r| r.strip_prefix(' '))
                    .is_some_and(|r| valid_name(r.split_whitespace().next().unwrap_or("")))
            });
            if !ok {
                return Err(format!("line {}: malformed comment: {line}", lineno + 1));
            }
            continue;
        }
        out.push(parse_sample(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(out)
}

/// Parse a `{`-opened label body starting just after the brace: quoted
/// values with `\\` / `\"` / `\n` escapes, comma-separated, up to the
/// closing `}`. Returns the pairs and the byte offset past the brace.
fn parse_labels(s: &str) -> Result<(Vec<(String, String)>, usize), String> {
    let b = s.as_bytes();
    let mut labels = Vec::new();
    let mut i = 0usize;
    loop {
        if i >= s.len() {
            return Err("unterminated label set".into());
        }
        if b[i] == b'}' {
            return Ok((labels, i + 1));
        }
        let eq = s[i..].find('=').ok_or("label without '='")? + i;
        let key = &s[i..eq];
        if !valid_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        if b.get(eq + 1) != Some(&b'"') {
            return Err("unquoted label value".into());
        }
        let mut j = eq + 2;
        let mut val = String::new();
        loop {
            match b.get(j) {
                None => return Err("unterminated label value".into()),
                Some(b'"') => {
                    j += 1;
                    break;
                }
                Some(b'\\') => {
                    match b.get(j + 1) {
                        Some(b'\\') => val.push('\\'),
                        Some(b'"') => val.push('"'),
                        Some(b'n') => val.push('\n'),
                        _ => return Err("bad escape in label value".into()),
                    }
                    j += 2;
                }
                Some(_) => {
                    let ch = s[j..].chars().next().expect("in-bounds char");
                    val.push(ch);
                    j += ch.len_utf8();
                }
            }
        }
        labels.push((key.to_string(), val));
        match b.get(j) {
            Some(b',') => i = j + 1,
            Some(b'}') => return Ok((labels, j + 1)),
            _ => return Err("expected ',' or '}' after label value".into()),
        }
    }
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name, labels, value_str) = match line.find('{') {
        Some(open) => {
            let (labels, consumed) = parse_labels(&line[open + 1..])?;
            (
                line[..open].to_string(),
                labels,
                line[open + 1 + consumed..].trim(),
            )
        }
        None => {
            let mut it = line.split_whitespace();
            let name = it.next().ok_or("empty line")?;
            let value = it.next().ok_or("missing value")?;
            (name.to_string(), Vec::new(), value)
        }
    };
    if !valid_name(&name) {
        return Err(format!("bad metric name {name:?}"));
    }
    // The value may be followed by an optional integer timestamp.
    let value: f64 = value_str
        .split_whitespace()
        .next()
        .ok_or("missing value")?
        .parse()
        .map_err(|e| format!("bad value {value_str:?}: {e}"))?;
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Check that the `le`-labelled buckets of every histogram in `samples`
/// are cumulative (non-decreasing as `le` increases, `+Inf` last and
/// equal to `_count`). Returns the number of histogram series checked.
pub fn check_histograms(samples: &[Sample]) -> Result<usize, String> {
    use std::collections::BTreeMap;
    // Group bucket samples by (family, non-le labels).
    let mut series: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    for s in samples {
        if let Some(family) = s.name.strip_suffix("_bucket") {
            let le = s
                .label("le")
                .ok_or_else(|| "bucket without le".to_string())?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().map_err(|e| format!("bad le {le:?}: {e}"))?
            };
            let key_rest: Vec<String> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            series
                .entry((family.to_string(), key_rest.join(",")))
                .or_default()
                .push((le, s.value));
        }
    }
    for ((family, rest), buckets) in &series {
        let mut buckets = buckets.clone();
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut prev = 0.0;
        for (le, v) in &buckets {
            if *v < prev {
                return Err(format!("{family}{{{rest}}}: bucket le={le} decreases"));
            }
            prev = *v;
        }
        let last = buckets.last().ok_or("empty histogram")?;
        if !last.0.is_infinite() {
            return Err(format!("{family}{{{rest}}}: missing +Inf bucket"));
        }
        // +Inf must equal _count when the count sample is present.
        let count = samples.iter().find(|s| {
            s.name == format!("{family}_count")
                && s.labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
                    == *rest
        });
        if let Some(c) = count {
            if (c.value - last.1).abs() > f64::EPSILON {
                return Err(format!("{family}{{{rest}}}: +Inf != _count"));
            }
        }
    }
    Ok(series.len())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let mut w = PromText::new();
        w.counter("jobs_total", "Jobs by kernel.")
            .u64(&[("kernel", "sort")], 41)
            .u64(&[("kernel", "fft"), ("ok", "yes")], 1);
        w.gauge("queue_depth", "Current depth.").f64(&[], 3.5);
        let text = w.finish();
        let samples = parse(&text).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "jobs_total");
        assert_eq!(samples[0].label("kernel"), Some("sort"));
        assert_eq!(samples[0].value, 41.0);
        assert_eq!(samples[2].value, 3.5);
    }

    #[test]
    fn histogram_writer_validates() {
        let mut h = Log2Hist::default();
        for us in [1, 3, 4, 34] {
            h.push(us); // buckets (..1], (2,4] twice, (32,64] native µs
        }
        let mut w = PromText::new();
        w.histogram("lat_seconds", "Latency.")
            .hist(&[("k", "sort")], &h, 1e6);
        let text = w.finish();
        let samples = parse(&text).unwrap();
        assert_eq!(check_histograms(&samples).unwrap(), 1);
        assert!(text.contains("lat_seconds_bucket{k=\"sort\",le=\"0.000001\"} 1"));
        assert!(text.contains("lat_seconds_bucket{k=\"sort\",le=\"0.000004\"} 3"));
        assert!(text.contains("lat_seconds_bucket{k=\"sort\",le=\"+Inf\"} 4"));
        assert!(text.contains("lat_seconds_count{k=\"sort\"} 4"));
        assert!(text.contains("lat_seconds_sum{k=\"sort\"} 0.000042"));
    }

    #[test]
    fn hostile_label_values_round_trip() {
        // Kernel/scenario names are caller-controlled: quotes,
        // backslashes, newlines, commas and braces must survive a
        // write → parse round trip escaped per the exposition format.
        let hostile = "sort\"v2\\latest\nline2,x={y}";
        let mut w = PromText::new();
        w.counter("jobs_total", "Jobs by kernel.")
            .u64(&[("kernel", hostile), ("ok", "yes")], 3);
        let text = w.finish();
        // One escaped line on the wire: the newline is the two
        // characters `\n`, not a line break.
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("kernel=\"sort\\\"v2\\\\latest\\nline2,x={y}\""));
        let samples = parse(&text).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].label("kernel"), Some(hostile));
        assert_eq!(samples[0].label("ok"), Some("yes"));
        assert_eq!(samples[0].value, 3.0);
    }

    /// SplitMix64: the seeded stream behind the crate's property tests.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len() as u64) as usize]
        }

        /// A metric or label name: `[a-zA-Z_:][a-zA-Z0-9_:]*` (labels
        /// never draw the colon).
        fn name(&mut self, colon: bool) -> String {
            let first = ["a", "Z", "_", "m", if colon { ":" } else { "q" }];
            let rest = ["a", "Z", "_", "0", "9", "x", if colon { ":" } else { "y" }];
            let mut s = self.pick(&first).to_string();
            for _ in 0..self.below(4) {
                s.push_str(self.pick(&rest));
            }
            s
        }

        /// A label value over the alphabet the format must escape or
        /// pass through untouched.
        fn label_value(&mut self) -> String {
            let alphabet = [
                "\\", "\"", "\n", "a", " ", ",", "=", "{", "}", "#", "é", "λ", "→", "🦀",
            ];
            (0..self.below(4)).map(|_| self.pick(&alphabet)).collect()
        }

        fn value_u64(&mut self) -> u64 {
            match self.below(4) {
                0 => self.below(10),
                1 => 1u64 << self.below(64),
                2 => u64::MAX,
                _ => self.next(),
            }
        }

        /// Mostly values that print in a few digits; now and then any
        /// finite bit pattern (`Display` writes those out in full, up
        /// to some 300 digits).
        fn value_f64(&mut self) -> f64 {
            let any = f64::from_bits(self.next());
            match self.below(32) {
                0 if any.is_finite() => any,
                1..=8 => (self.below(2001) as f64 - 1000.0) / 8.0,
                _ => self.next() as i64 as f64 / 10f64.powi(self.below(25) as i32),
            }
        }
    }

    /// One random family written through the handle (its first sample
    /// a histogram series when `hist` is set); returns the samples a
    /// faithful parse must give back.
    fn write_random_family(rng: &mut Rng, w: &mut PromText, hist: bool) -> Vec<Sample> {
        let name = rng.name(true);
        let mut f = match (hist, rng.below(2)) {
            (true, _) => w.histogram(&name, "Help."),
            (false, 0) => w.counter(&name, "Help."),
            (false, _) => w.gauge(&name, "Help."),
        };
        let mut want = Vec::new();
        for nth in 0..1 + rng.below(2) {
            let mut owned: Vec<(String, String)> = Vec::new();
            for _ in 0..rng.below(3) {
                let key = rng.name(false);
                // `le` is the histogram writer's own label.
                if key != "le" && owned.iter().all(|(k, _)| *k != key) {
                    owned.push((key, rng.label_value()));
                }
            }
            let labels: Vec<(&str, &str)> = owned
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let mut expect = |suffix: &str, le: Option<String>, value: f64| {
                let mut labels = owned.clone();
                labels.extend(le.map(|le| ("le".to_string(), le)));
                want.push(Sample {
                    name: format!("{name}{suffix}"),
                    labels,
                    value,
                });
            };
            match rng.below(8) {
                _ if hist && nth == 0 => {
                    let mut h = Log2Hist::default();
                    for _ in 0..rng.below(20) {
                        h.push(rng.value_u64() >> rng.below(64));
                    }
                    let units = [1.0, 1e6, 1e9][rng.below(3) as usize];
                    f.hist(&labels, &h, units);
                    let mut cum = 0;
                    for (i, c) in h.buckets.iter().enumerate() {
                        cum += c;
                        let le = bucket_upper(i).map_or("+Inf".to_string(), |upper| {
                            format!("{}", upper as f64 / units)
                        });
                        expect("_bucket", Some(le), cum as f64);
                    }
                    expect("_sum", None, h.sum as f64 / units);
                    expect("_count", None, h.count as f64);
                }
                0..=3 => {
                    let v = rng.value_u64();
                    f.u64(&labels, v);
                    expect("", None, v as f64);
                }
                _ => {
                    let v = rng.value_f64();
                    f.f64(&labels, v);
                    expect("", None, v);
                }
            }
        }
        want
    }

    /// ROADMAP 1(d), the Prometheus third: `parse(write(x)) == x` over
    /// random families, hostile label values and every value kind, and
    /// no truncation or single-byte corruption of a written document
    /// makes the parser (or the histogram checker) panic — each is
    /// `Ok` or a typed `Err`.
    #[test]
    fn random_documents_round_trip_and_mutations_never_panic() {
        fn survives(bytes: &[u8]) {
            if let Ok(samples) = parse(&String::from_utf8_lossy(bytes)) {
                let _ = check_histograms(&samples);
            }
        }
        let mut rng = Rng(0x6d6f_2d6f_6273);
        for case in 0..2_000 {
            let mut w = PromText::new();
            let mut want = Vec::new();
            for _ in 0..1 + rng.below(4) / 3 {
                want.extend(write_random_family(&mut rng, &mut w, case % 500 == 0));
            }
            let text = w.finish();
            let got = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(got, want, "case {case}:\n{text}");

            // `parse` carries nothing from one line to the next, so a
            // mutated document is judged on the lines the mutation
            // touches: a cut leaves intact lines (parsed above) and one
            // partial line; a corrupted byte changes its own line, and
            // the line after it too when it was the newline between
            // them.
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            for (i, line) in lines.iter().enumerate() {
                let next = lines.get(i + 1).copied().unwrap_or("");
                let mut unit = [line.as_bytes(), next.as_bytes()].concat();
                for at in 0..line.len() {
                    survives(&unit[..at]);
                    let intact = std::mem::replace(&mut unit[at], rng.next() as u8);
                    let reach = if at + 1 == line.len() {
                        unit.len()
                    } else {
                        line.len()
                    };
                    survives(&unit[..reach]);
                    unit[at] = intact;
                }
            }
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("m{x=\"a\\q\"} 1").is_err()); // bad escape
        assert!(parse("m{x=\"a} 1").is_err()); // unterminated value
        assert!(parse("m{x=\"a\" y=\"b\"} 1").is_err()); // missing comma
        assert!(parse("ok_metric 1\nbad metric name 2").is_err());
        assert!(parse("m{x=1} 2").is_err()); // unquoted label value
        assert!(parse("m{x=\"a\"}").is_err()); // missing value
        assert!(parse("# BOGUS header").is_err());
        assert!(parse("# HELP m fine\n# TYPE m counter\nm 7").is_ok());
    }

    #[test]
    fn histogram_checker_enforces_cumulative_buckets() {
        let ok = "\
h_bucket{le=\"0.1\"} 1\n\
h_bucket{le=\"1\"} 3\n\
h_bucket{le=\"+Inf\"} 4\n\
h_count 4\n";
        assert_eq!(check_histograms(&parse(ok).unwrap()).unwrap(), 1);
        let dec = "h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 4\n";
        assert!(check_histograms(&parse(dec).unwrap()).is_err());
        let noinf = "h_bucket{le=\"1\"} 5\n";
        assert!(check_histograms(&parse(noinf).unwrap()).is_err());
        let badcount = "h_bucket{le=\"+Inf\"} 4\nh_count 5\n";
        assert!(check_histograms(&parse(badcount).unwrap()).is_err());
    }
}
