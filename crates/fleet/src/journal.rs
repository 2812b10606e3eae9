//! The crash-safe results journal: `taintvp-fleet/v1` JSONL.
//!
//! Line 1 is the header (format tag, suite name, job count, seed, fault
//! rate and any further payload-changing inputs); every
//! following line is one terminal [`JobResult`]. Appends are fsync'd per
//! batch by the executor, so after SIGKILL the file holds every result
//! reported before the last sync plus at most one torn line. Resume
//! ([`Journal::open_resume`]) tolerates that torn tail — it parses what
//! it can, verifies the header matches the campaign being resumed, and
//! hands back the completed results so the executor can skip them.
//!
//! A record is intact iff its line parses as one JSON value: every
//! proper prefix of an object is a parse error, so a torn tail never
//! passes for a shorter record. Fields are then read through the parsed
//! [`Value`], except `payload`: the writer puts that raw JSON last, so it
//! is copied verbatim from its key to the record's closing brace and the
//! aggregate stays byte-identical to what the job rendered.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use vpdift_obs::json::{self, escape, Value};

use crate::job::{JobResult, JobStatus};

/// The format tag every journal opens with.
pub const FORMAT: &str = "taintvp-fleet/v1";

/// Campaign identity, pinned in the header line and re-verified on
/// resume so a journal can never splice results from a different sweep:
/// every input that changes a job's payload belongs here.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Suite name (e.g. `faultcamp`, `immo-sweep`).
    pub suite: String,
    /// Total jobs in the campaign.
    pub jobs: u64,
    /// Master seed.
    pub seed: u64,
    /// Fault rate: faults per step of the reference run.
    pub rate: f64,
    /// The suite's further payload-changing inputs as named string
    /// values, such as a digest of the swept program or the jobs replaced
    /// by injected failures; empty when it has none.
    pub inputs: Vec<(&'static str, String)>,
}

impl JournalHeader {
    fn render(&self) -> String {
        let mut line = format!(
            "{{\"format\":\"{FORMAT}\",\"suite\":\"{}\",\"jobs\":{},\"seed\":{},\"rate\":{}",
            escape(&self.suite),
            self.jobs,
            self.seed,
            self.rate
        );
        for (name, value) in &self.inputs {
            line.push_str(&format!(",\"{}\":\"{}\"", escape(name), escape(value)));
        }
        line.push('}');
        line
    }

    /// Why `line` is not this campaign's header. Whether a journal matches
    /// is decided by comparing its header line with
    /// [`JournalHeader::render`] as text, so every `u64` seed is exact.
    fn mismatch(&self, line: &str) -> io::Error {
        let ours = json::parse(line)
            .is_ok_and(|h| h.get("format").and_then(Value::as_str) == Some(FORMAT));
        let message = if ours {
            format!(
                "journal belongs to a different campaign: found {line}, expected {}",
                self.render()
            )
        } else {
            format!("journal header is not {FORMAT}")
        };
        io::Error::new(io::ErrorKind::InvalidData, message)
    }
}

/// Renders one result as its journal line (no trailing newline).
pub fn render_record(r: &JobResult) -> String {
    let detail = match &r.detail {
        Some(d) => format!("\"{}\"", escape(d)),
        None => "null".to_string(),
    };
    let counts: Vec<String> = r.counts.iter().map(u64::to_string).collect();
    let payload = r.payload.as_deref().unwrap_or("null");
    format!(
        "{{\"job\":{},\"status\":\"{}\",\"attempts\":{},\"elapsed_us\":{},\"counts\":[{}],\"detail\":{},\"payload\":{}}}",
        r.job_id,
        r.status.label(),
        r.attempts,
        r.elapsed_us,
        counts.join(","),
        detail,
        payload,
    )
}

/// Parses one journal record line; `None` for torn or foreign lines.
pub fn parse_record(line: &str) -> Option<JobResult> {
    let line = line.trim_end();
    let v = json::parse(line).ok()?;
    let detail = match v.get("detail")? {
        Value::Null => None,
        d => Some(d.as_str()?.to_owned()),
    };
    let counts = v.get("counts")?.as_arr()?.iter().map(Value::as_u64).collect::<Option<_>>()?;
    // The line parsed as an object, so it ends in its closing brace.
    let payload_raw = &line[line.find("\"payload\":")? + "\"payload\":".len()..line.len() - 1];
    Some(JobResult {
        job_id: v.get("job")?.as_u64()?,
        status: JobStatus::parse(v.get("status")?.as_str()?)?,
        attempts: v.get("attempts")?.as_u32()?,
        payload: (payload_raw != "null").then(|| payload_raw.to_owned()),
        counts,
        detail,
        elapsed_us: v.get("elapsed_us")?.as_u64()?,
    })
}

/// An append handle on a journal file.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Creates (truncating) a fresh journal with `header`, fsync'd
    /// before returning so the campaign identity survives any crash.
    pub fn create(path: &Path, header: &JournalHeader) -> io::Result<Journal> {
        let mut file = File::create(path)?;
        writeln!(file, "{}", header.render())?;
        file.sync_data()?;
        Ok(Journal { file })
    }

    /// Opens an existing journal for resume: verifies the header matches
    /// `expect`, parses every intact record (tolerating a torn tail
    /// line, which is truncated away so appends restart on a clean
    /// record boundary), and returns the append handle plus the
    /// recovered results.
    pub fn open_resume(
        path: &Path,
        expect: &JournalHeader,
    ) -> io::Result<(Journal, Vec<JobResult>)> {
        let mut lines = Vec::new();
        for line in BufReader::new(File::open(path)?).lines() {
            lines.push(line?);
        }
        let header_line = lines
            .first()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty journal"))?;
        if *header_line != expect.render() {
            return Err(expect.mismatch(header_line));
        }

        // Byte offset past the last intact line — where appends resume.
        let mut intact_end = header_line.len() as u64 + 1;
        let mut results: Vec<JobResult> = Vec::new();
        for line in &lines[1..] {
            match parse_record(line) {
                Some(r) => {
                    intact_end += line.len() as u64 + 1;
                    // Last write wins: a rerun after a torn record may
                    // journal the same job twice.
                    results.retain(|p| p.job_id != r.job_id);
                    results.push(r);
                }
                // Torn tail from the killed writer: recover what parsed,
                // drop the fragment.
                None => break,
            }
        }
        results.sort_by_key(|r| r.job_id);

        // Truncate the torn tail (if any) so the next append starts a
        // fresh line rather than gluing onto the fragment.
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(intact_end)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((Journal { file }, results))
    }

    /// Appends one record (no sync — call [`Journal::sync`] per batch).
    pub fn append(&mut self, r: &JobResult) -> io::Result<()> {
        writeln!(self.file, "{}", render_record(r))
    }

    /// Flushes appended records to disk (fsync).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64, status: JobStatus) -> JobResult {
        JobResult {
            job_id: id,
            status,
            attempts: 1 + (id % 3) as u32,
            payload: match status {
                JobStatus::Ok => Some(format!("{{\"run\":{id},\"results\":[1,2]}}")),
                _ => None,
            },
            counts: vec![id, 0, 7],
            detail: match status {
                JobStatus::Ok => None,
                _ => Some("thread panicked: \"index 3\"\nbacktrace".to_string()),
            },
            elapsed_us: 1234,
        }
    }

    #[test]
    fn record_round_trips() {
        for status in [JobStatus::Ok, JobStatus::Crashed, JobStatus::Hang, JobStatus::Error] {
            let r = sample(5, status);
            let line = render_record(&r);
            let back = parse_record(&line).expect("parses");
            assert_eq!(back.job_id, r.job_id);
            assert_eq!(back.status, r.status);
            assert_eq!(back.attempts, r.attempts);
            assert_eq!(back.payload, r.payload);
            assert_eq!(back.counts, r.counts);
            assert_eq!(back.detail, r.detail);
            assert_eq!(back.elapsed_us, r.elapsed_us);
        }
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let header =
            JournalHeader { suite: "t".into(), jobs: 4, seed: 9, rate: 5e-5, inputs: Vec::new() };
        {
            let mut j = Journal::create(&path, &header).unwrap();
            j.append(&sample(0, JobStatus::Ok)).unwrap();
            j.append(&sample(1, JobStatus::Crashed)).unwrap();
            j.sync().unwrap();
        }
        // Simulate a SIGKILL mid-append: half a record, no newline.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"job\":2,\"status\":\"ok\",\"atte").unwrap();
        }
        let (_j, recovered) = Journal::open_resume(&path, &header).unwrap();
        let ids: Vec<u64> = recovered.iter().map(|r| r.job_id).collect();
        assert_eq!(ids, vec![0, 1], "intact records recovered, torn tail dropped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_at_internal_brace_is_rejected() {
        // The adversarial tear: a record with a nested JSON payload cut
        // exactly after the payload's own closing brace. The line ends
        // in '}' but the record's outer brace is still open — it must
        // parse as torn, not as a completed job with a truncated payload.
        let full = render_record(&sample(2, JobStatus::Ok));
        let inner_end = full.rfind("]}").expect("payload array close") + "]}".len();
        let torn = &full[..inner_end];
        assert!(torn.ends_with('}'), "tear lands on an internal brace");
        assert!(parse_record(torn).is_none(), "torn-at-internal-brace accepted: {torn}");
        assert!(parse_record(&full).is_some(), "intact record still parses");
        for n in 0..full.len() {
            assert!(parse_record(&full[..n]).is_none(), "torn record accepted: {}", &full[..n]);
        }

        // And end-to-end: resume over such a tail recovers only the
        // intact records.
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-brace.jsonl");
        let header =
            JournalHeader { suite: "t".into(), jobs: 4, seed: 9, rate: 5e-5, inputs: Vec::new() };
        {
            let mut j = Journal::create(&path, &header).unwrap();
            j.append(&sample(0, JobStatus::Ok)).unwrap();
            j.sync().unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{torn}").unwrap();
        }
        let (_j, recovered) = Journal::open_resume(&path, &header).unwrap();
        let ids: Vec<u64> = recovered.iter().map(|r| r.job_id).collect();
        assert_eq!(ids, vec![0], "truncated payload must not be spliced into the aggregate");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detail_braces_inside_strings_do_not_confuse_completeness() {
        let mut r = sample(3, JobStatus::Crashed);
        r.detail = Some("panicked at {\"depth\": [1, {2}]} mid-line".to_string());
        let line = render_record(&r);
        let back = parse_record(&line).expect("braces inside strings are opaque");
        assert_eq!(back.detail, r.detail);
    }

    #[test]
    fn header_with_quotes_in_suite_round_trips() {
        let header = JournalHeader {
            suite: "camp \"alpha\" \\ beta".into(),
            jobs: 2,
            seed: 1,
            rate: 5e-5,
            inputs: vec![("note", "a \"quoted\" value".into())],
        };
        let parsed = json::parse(&header.render()).expect("escaped header parses");
        assert_eq!(parsed.get("suite").and_then(Value::as_str), Some(header.suite.as_str()));

        // And resume against the same header must succeed, not report a
        // foreign-format journal.
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quoted-suite.jsonl");
        Journal::create(&path, &header).unwrap();
        let (_j, recovered) = Journal::open_resume(&path, &header).unwrap();
        assert!(recovered.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_header_refuses_resume() {
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.jsonl");
        let header =
            JournalHeader { suite: "a".into(), jobs: 4, seed: 9, rate: 5e-5, inputs: Vec::new() };
        Journal::create(&path, &header).unwrap();
        let written = std::fs::read(&path).unwrap();
        let others = [
            JournalHeader { seed: 10, ..header.clone() },
            JournalHeader { rate: 1e-3, ..header.clone() },
            JournalHeader { inputs: vec![("program", "00ff".into())], ..header.clone() },
        ];
        for other in &others {
            let err = Journal::open_resume(&path, other).unwrap_err();
            assert!(err.to_string().contains("different campaign"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), written, "a refused journal is untouched");
        }
        std::fs::write(&path, "{\"format\":\"other/v9\"}\n").unwrap();
        let err = Journal::open_resume(&path, &header).unwrap_err();
        assert!(err.to_string().contains("not taintvp-fleet/v1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeds_beyond_f64_precision_are_compared_exactly() {
        // u64::MAX and u64::MAX - 1 are the same JSON number once read as
        // an f64; resume must still tell the two campaigns apart.
        let dir = std::env::temp_dir().join(format!("fleet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("max-seed.jsonl");
        let header = JournalHeader {
            suite: "s".into(),
            jobs: 3,
            seed: u64::MAX,
            rate: 5e-5,
            inputs: Vec::new(),
        };
        Journal::create(&path, &header).unwrap();
        let (_j, recovered) = Journal::open_resume(&path, &header).expect("same campaign resumes");
        assert!(recovered.is_empty());
        let near = JournalHeader { seed: u64::MAX - 1, ..header };
        let err = Journal::open_resume(&path, &near).unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
