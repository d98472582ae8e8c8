//! The workload and metric lists, read from `BENCHMARK.json` (compiled in),
//! so the file and the program cannot drift apart. `metrics.json` must
//! describe exactly the metrics `BENCHMARK.json` names.

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const METRICS: &str = include_str!("../metrics.json");

pub struct Spec {
    pub workloads: Vec<String>,
    /// (name, unit) of every end-to-end metric.
    pub end_to_end: Vec<(String, String)>,
    /// (name, unit) of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let bench = Json::parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let described = Json::parse(METRICS).map_err(|e| format!("metrics.json: {e}"))?;
        let names = |key: &str| -> Result<Vec<(String, String)>, String> {
            let list = bench
                .get(key)
                .and_then(Json::items)
                .ok_or_else(|| format!("BENCHMARK.json has no list {key:?}"))?;
            list.iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::str).map(str::to_string);
                    let name = field("name").ok_or(format!("an entry of {key} has no name"))?;
                    Ok((name, field("unit").unwrap_or_default()))
                })
                .collect()
        };
        let spec = Spec {
            workloads: names("workloads")?.into_iter().map(|(n, _)| n).collect(),
            end_to_end: names("end_to_end")?,
            per_layer: names("per_layer")?,
        };
        for (key, listed) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            let keys: Vec<&str> = described
                .get(key)
                .and_then(Json::keys)
                .ok_or_else(|| format!("metrics.json has no object {key:?}"))?;
            let mut a: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
            let mut b = keys;
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return Err(format!(
                    "metrics.json {key} describes {b:?}, BENCHMARK.json lists {a:?}"
                ));
            }
        }
        Ok(spec)
    }

    pub fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| n == name)
            .map(|(_, u)| u.as_str())
    }
}

/// Just enough JSON for the two files above.
enum Json {
    Null,
    Bool,
    Num,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing text at byte {}", p.i));
        }
        Ok(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn keys(&self) -> Option<Vec<&str>> {
        match self {
            Json::Obj(fields) => Some(fields.iter().map(|(k, _)| k.as_str()).collect()),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&c);
        if hit {
            self.i += 1;
        }
        hit
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.ws();
                        let key = self.string()?;
                        if !self.eat(b':') {
                            return self.err("expected ':'");
                        }
                        fields.push((key, self.value()?));
                        if self.eat(b'}') {
                            break;
                        }
                        if !self.eat(b',') {
                            return self.err("expected ',' or '}'");
                        }
                    }
                }
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return self.err("expected ',' or ']'");
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
                {
                    self.i += 1;
                }
                match &self.s[start..self.i] {
                    b"null" => Ok(Json::Null),
                    b"true" | b"false" => Ok(Json::Bool),
                    t if std::str::from_utf8(t).is_ok_and(|t| t.parse::<f64>().is_ok()) => {
                        Ok(Json::Num)
                    }
                    _ => self.err("expected a value"),
                }
            }
            None => self.err("unexpected end"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return self.err("expected a string");
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => break,
                Some(b'\\') => {
                    let c = match self.s.get(self.i + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return self.err("unsupported escape"),
                    };
                    out.push(c);
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
        self.i += 1;
        String::from_utf8(out).or_else(|_| self.err("invalid UTF-8"))
    }
}
