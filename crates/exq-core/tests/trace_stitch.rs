//! End-to-end trace stitching and telemetry transparency.
//!
//! One query over a real TCP socket with a JSON-lines trace sink must emit
//! a single stitched span tree: one trace id shared across the wire, client
//! and server sides both present, server spans re-parented under the
//! client's `wire.roundtrip` span, and span durations agreeing with the
//! phase timings the query reports. And switching telemetry on or off must
//! never change an answer.
//!
//! Everything runs in one `#[test]` because the checks toggle process-wide
//! telemetry state (enabled flag, trace sink) that concurrent tests in the
//! same binary would race on.

use exq_core::constraints::SecurityConstraint;
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::telemetry;
use exq_core::transport::{ServeConfig, TcpTransport};
use exq_core::{serve_event, Client, Server, TenantRegistry, DEFAULT_DB};
use exq_xml::Document;
use std::net::TcpListener;
use std::sync::{Arc, RwLock};

fn hosted() -> (Client, Server) {
    let doc = Document::parse(
        r#"<hospital>
            <patient><pname>Betty</pname><SSN>763895</SSN><age>35</age>
              <insurance><policy coverage="1000000">34221</policy></insurance></patient>
            <patient><pname>Matt</pname><SSN>276543</SSN><age>40</age>
              <insurance><policy coverage="5000">78543</policy></insurance></patient>
           </hospital>"#,
    )
    .unwrap();
    let cs = vec![
        SecurityConstraint::parse("//insurance").unwrap(),
        SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap(),
    ];
    Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 33)
        .unwrap()
        .split()
}

/// Pulls one field's raw token out of a span's JSON line (values are either
/// quoted hex strings or bare integers; names never contain escapes).
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat).expect("field present") + pat.len();
    let rest = &line[start..];
    let (rest, quoted) = match rest.strip_prefix('"') {
        Some(r) => (r, true),
        None => (rest, false),
    };
    let end = rest
        .find(if quoted { ['"', '"'] } else { [',', '}'] })
        .expect("field terminated");
    &rest[..end]
}

#[test]
fn traces_stitch_and_telemetry_never_changes_answers() {
    let queries = [
        "//patient/pname",
        "//patient[pname = 'Betty']/age",
        "//patient[.//policy/@coverage = 5000]/pname",
        "//insurance",
        "//nosuchtag",
    ];
    let (client, mut server) = hosted();
    server.set_cache_entries(Some(1024));
    let shared = Arc::new(RwLock::new(server));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let registry = Arc::new(TenantRegistry::single(DEFAULT_DB, shared).unwrap());
    let handle = serve_event(listener, registry, ServeConfig::default()).unwrap();
    let mut tcp = TcpTransport::connect_default(handle.addr()).unwrap();

    // --- Part 1: telemetry on vs off yields bit-identical answers. -------
    telemetry::set_enabled(false);
    let off: Vec<Vec<String>> = queries
        .iter()
        .map(|q| client.query_via(&mut tcp, q).unwrap().results)
        .collect();
    telemetry::set_enabled(true);
    telemetry::set_trace_all(true);
    let on: Vec<Vec<String>> = queries
        .iter()
        .map(|q| client.query_via(&mut tcp, q).unwrap().results)
        .collect();
    telemetry::set_trace_all(false);
    assert_eq!(on, off, "telemetry must be answer-transparent");

    // --- Part 2: one traced query emits a stitched client+server tree. --
    let path = std::env::temp_dir().join(format!("exq_trace_{}.jsonl", std::process::id()));
    telemetry::set_trace_out(&path).unwrap();
    // A query part 1 never ran: a response-cache miss walks the full
    // server pipeline, so every span in the taxonomy gets recorded.
    let out = client
        .query_via(&mut tcp, "//patient[pname = 'Matt']/age")
        .unwrap();
    telemetry::clear_trace_out();
    handle.shutdown();
    assert_eq!(out.results, ["<age>40</age>"]);

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(lines.len() >= 6, "expected a full span tree, got:\n{text}");

    // One shared, nonzero trace id across every span on both sides.
    let trace = field(lines[0], "trace");
    assert_ne!(trace, "0000000000000000");
    for l in &lines {
        assert_eq!(field(l, "trace"), trace, "trace id must span the wire");
    }
    let sides: std::collections::HashSet<&str> = lines.iter().map(|l| field(l, "side")).collect();
    assert!(sides.contains("client") && sides.contains("server"));

    let by_name =
        |name: &str| -> Vec<&&str> { lines.iter().filter(|l| field(l, "name") == name).collect() };
    for required in [
        "client.translate",
        "wire.roundtrip",
        "client.decrypt",
        "client.post_process",
        "server.cache_probe",
        "server.dsi_lookup",
        "server.sjoin",
        "server.assemble",
    ] {
        assert!(!by_name(required).is_empty(), "missing span {required}");
    }

    // Server spans hang off the client's roundtrip span: one tree.
    let roundtrips = by_name("wire.roundtrip");
    assert_eq!(roundtrips.len(), 1, "single query, single roundtrip");
    let roundtrip_id = field(roundtrips[0], "id");
    let roundtrip_dur: u64 = field(roundtrips[0], "dur_ns").parse().unwrap();
    for l in &lines {
        if field(l, "side") == "server" {
            assert_eq!(
                field(l, "parent"),
                roundtrip_id,
                "server spans must re-parent under wire.roundtrip"
            );
            let dur: u64 = field(l, "dur_ns").parse().unwrap();
            assert!(
                dur <= roundtrip_dur,
                "a server span cannot outlast the roundtrip that carried it"
            );
        }
    }

    // Span durations are the reported stats, not re-measurements.
    let dsi_dur: u64 = field(by_name("server.dsi_lookup")[0], "dur_ns")
        .parse()
        .unwrap();
    assert_eq!(
        dsi_dur,
        out.timing.server_translate.as_nanos() as u64,
        "server.dsi_lookup span must equal the reported translate time"
    );
    let translate_dur: u64 = field(by_name("client.translate")[0], "dur_ns")
        .parse()
        .unwrap();
    assert_eq!(
        translate_dur,
        out.timing.client_translate.as_nanos() as u64,
        "client.translate span must equal the reported phase timing"
    );
    let decrypt_dur: u64 = field(by_name("client.decrypt")[0], "dur_ns")
        .parse()
        .unwrap();
    assert!(
        decrypt_dur <= out.timing.decrypt.as_nanos() as u64,
        "measured decrypt span cannot exceed the era-adjusted phase timing"
    );
}
