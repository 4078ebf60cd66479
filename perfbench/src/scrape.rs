//! Reading the server's own outputs: `/metrics` (Prometheus text),
//! `INFO`, and one-shot commands.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use slimio_server::bench::read_value;
use slimio_server::resp::{encode_command_slices, Parser, Value};

const TIMEOUT: Duration = Duration::from_secs(30);

/// A control connection to the server under test. Polls reuse it, so
/// they cost the server no connection thread each.
pub struct Control {
    stream: TcpStream,
    parser: Parser,
    rbuf: Vec<u8>,
    cmd: Vec<u8>,
}

impl Control {
    pub fn connect(port: u16) -> Result<Self, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(TIMEOUT))
            .and_then(|_| stream.set_nodelay(true))
            .map_err(|e| e.to_string())?;
        Ok(Control {
            stream,
            parser: Parser::new(),
            rbuf: vec![0; 64 << 10],
            cmd: Vec::new(),
        })
    }

    /// Sends one command and returns its reply.
    pub fn command(&mut self, args: &[&[u8]]) -> Result<Value, String> {
        let name = String::from_utf8_lossy(args[0]).into_owned();
        self.cmd.clear();
        encode_command_slices(args, &mut self.cmd);
        self.stream
            .write_all(&self.cmd)
            .and_then(|_| read_value(&mut self.stream, &mut self.parser, &mut self.rbuf))
            .map_err(|e| format!("{name}: {e}"))
    }

    /// `INFO` as a field map.
    pub fn info(&mut self) -> Result<HashMap<String, String>, String> {
        match self.command(&[b"INFO"])? {
            Value::Bulk(text) => Ok(String::from_utf8_lossy(&text)
                .lines()
                .filter_map(|l| l.split_once(':'))
                .map(|(k, v)| (k.to_string(), v.trim().to_string()))
                .collect()),
            other => Err(format!("INFO answered {other:?}")),
        }
    }

    /// One numeric `INFO` field.
    pub fn info_u64(&mut self, field: &str) -> Result<u64, String> {
        info_u64(&self.info()?, field)
    }
}

/// One numeric field of an `INFO` map.
pub fn info_u64(info: &HashMap<String, String>, field: &str) -> Result<u64, String> {
    info.get(field)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("INFO has no numeric {field}"))
}

/// One `/metrics` scrape: every sample keyed by its series text
/// (name plus labels).
pub struct Scrape {
    samples: HashMap<String, f64>,
}

/// A histogram series summed over the series matching a label filter.
#[derive(Default)]
pub struct HistSnap {
    /// `(le seconds, cumulative count)` in ascending `le`.
    buckets: Vec<(f64, u64)>,
    sum: f64,
    count: u64,
}

/// Mean and p99 (seconds) of the samples recorded between two scrapes.
#[derive(Clone, Copy, Debug, Default)]
pub struct HistDelta {
    pub mean_s: f64,
    pub p99_s: f64,
    pub sum_s: f64,
}

impl Scrape {
    pub fn fetch(addr: SocketAddr) -> Result<Self, String> {
        let mut s = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut body = String::new();
        s.read_to_string(&mut body).map_err(|e| e.to_string())?;
        let text = body
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .ok_or("malformed /metrics response")?;
        Ok(Self::parse(text))
    }

    fn parse(text: &str) -> Self {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect();
        Scrape { samples }
    }

    /// The sample of an exact series, 0 when absent.
    pub fn value(&self, series: &str) -> f64 {
        self.samples.get(series).copied().unwrap_or(0.0)
    }

    /// The histogram `name`, summed over every series whose labels
    /// contain `filter` (e.g. `stage="execute"`; "" for all).
    pub fn hist(&self, name: &str, filter: &str) -> HistSnap {
        let bucket = format!("{name}_bucket");
        let mut les: HashMap<String, Vec<(f64, u64)>> = HashMap::new();
        let mut h = HistSnap::default();
        for (k, &v) in &self.samples {
            if !k.contains(filter) {
                continue;
            }
            if let Some(rest) = k.strip_prefix(&bucket) {
                let Some((series, le)) = rest.rsplit_once("le=\"") else {
                    continue;
                };
                let le = le.trim_end_matches("\"}");
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(f64::INFINITY)
                };
                les.entry(series.to_string())
                    .or_default()
                    .push((le, v as u64));
            } else if k.starts_with(&format!("{name}_sum")) {
                h.sum += v;
            } else if k.starts_with(&format!("{name}_count")) {
                h.count += v as u64;
            }
        }
        // Sum the series' cumulative counts at every edge any of them has.
        let mut edges: Vec<f64> = les.values().flatten().map(|&(le, _)| le).collect();
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        for series in les.values_mut() {
            series.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        h.buckets = edges
            .into_iter()
            .map(|e| (e, les.values().map(|s| cum_at(s, e)).sum()))
            .collect();
        h
    }
}

/// Cumulative count at edge `le` of a sparse cumulative bucket list.
fn cum_at(buckets: &[(f64, u64)], le: f64) -> u64 {
    buckets
        .iter()
        .take_while(|&&(e, _)| e <= le)
        .last()
        .map_or(0, |&(_, c)| c)
}

impl HistSnap {
    /// What was recorded after `earlier` and up to `self`.
    pub fn since(&self, earlier: &HistSnap) -> HistDelta {
        let count = self.count.saturating_sub(earlier.count);
        let sum_s = (self.sum - earlier.sum).max(0.0);
        let target = (count as f64 * 0.99).ceil() as u64;
        let p99_s = self
            .buckets
            .iter()
            .find(|&&(le, c)| {
                le.is_finite() && c.saturating_sub(cum_at(&earlier.buckets, le)) >= target
            })
            .map_or(0.0, |&(le, _)| le);
        HistDelta {
            mean_s: if count == 0 {
                0.0
            } else {
                sum_s / count as f64
            },
            p99_s: if count == 0 { 0.0 } else { p99_s },
            sum_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_deltas_come_from_bucket_differences() {
        let a = Scrape::parse(
            "# HELP x\n\
             lat_seconds_bucket{stage=\"s\",le=\"0.001\"} 10\n\
             lat_seconds_bucket{stage=\"s\",le=\"+Inf\"} 10\n\
             lat_seconds_sum{stage=\"s\"} 0.005\n\
             lat_seconds_count{stage=\"s\"} 10\n",
        );
        let b = Scrape::parse(
            "lat_seconds_bucket{stage=\"s\",le=\"0.001\"} 10\n\
             lat_seconds_bucket{stage=\"s\",le=\"0.002\"} 109\n\
             lat_seconds_bucket{stage=\"s\",le=\"0.004\"} 110\n\
             lat_seconds_bucket{stage=\"s\",le=\"+Inf\"} 110\n\
             lat_seconds_sum{stage=\"s\"} 0.205\n\
             lat_seconds_count{stage=\"s\"} 110\n\
             other_total 7\n",
        );
        let d = b
            .hist("lat_seconds", "stage=\"s\"")
            .since(&a.hist("lat_seconds", "stage=\"s\""));
        assert!((d.sum_s - 0.2).abs() < 1e-12);
        assert!((d.mean_s - 0.002).abs() < 1e-12);
        assert_eq!(d.p99_s, 0.002);
        assert_eq!(b.value("other_total"), 7.0);
    }
}
