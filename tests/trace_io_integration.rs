//! Integration: trace serialisation round-trips preserve every analysis
//! artifact, so traces can be generated once and analysed elsewhere.

use bwsa::core::Session;
use bwsa::trace::io as trace_io;
use bwsa::workload::suite::{Benchmark, InputSet};

#[test]
fn binary_roundtrip_preserves_analysis_results() {
    let trace = Benchmark::Ijpeg.generate_scaled(InputSet::A, 0.05);
    let bytes = trace_io::encode_binary(&trace);
    let back = trace_io::decode_binary(&bytes).expect("roundtrip decodes");
    assert_eq!(back, trace);

    let original_session = Session::new(&trace);
    let original = original_session.run().unwrap();
    let reloaded_session = Session::new(&back);
    let reloaded = reloaded_session.run().unwrap();
    assert_eq!(original.working_sets, reloaded.working_sets);
    assert_eq!(original.profile, reloaded.profile);
}

#[test]
fn binary_format_is_compact() {
    let trace = Benchmark::Compress.generate_scaled(InputSet::A, 0.05);
    let bytes = trace_io::encode_binary(&trace);
    // 17 bytes/record naive; delta varints should stay under 6.
    assert!(
        bytes.len() < trace.len() * 6,
        "{} bytes for {} records",
        bytes.len(),
        trace.len()
    );
}
