//! Compact binary snapshots of corpora and vocabularies.
//!
//! Preprocessing a billion-token corpus (tokenising, pruning, building the
//! word-major layouts) is itself expensive, so CuLDA_CGS-style pipelines
//! preprocess once and reload the result for every training run.  The format
//! here is a small, versioned, little-endian container:
//!
//! ```text
//! magic  "CLDC"          4 bytes
//! version u32            currently 1
//! vocab_size u64
//! num_docs   u64
//! num_tokens u64
//! doc_ptr    (num_docs + 1) × u64
//! tokens     num_tokens × u32
//! ```
//!
//! Vocabularies are stored as the UCI plain-text format (one word per line)
//! via [`write_vocab`] so they stay interoperable with the original datasets.

use crate::corpus::{Corpus, CorpusBuilder};
use crate::vocab::Vocabulary;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying a corpus snapshot.
pub const MAGIC: &[u8; 4] = b"CLDC";
/// Current snapshot format version.
pub const VERSION: u32 = 1;

/// Errors produced while reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The magic bytes do not match [`MAGIC`].
    BadMagic([u8; 4]),
    /// The format version is not supported.
    UnsupportedVersion(u32),
    /// Structural inconsistency (counts, pointers or word ids out of range).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io error: {e}"),
            SnapshotError::BadMagic(m) => write!(f, "bad magic bytes {m:?}"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Serialize a corpus into `writer`.
pub fn write_corpus<W: Write>(corpus: &Corpus, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u64(&mut w, corpus.vocab_size() as u64)?;
    write_u64(&mut w, corpus.num_docs() as u64)?;
    write_u64(&mut w, corpus.num_tokens() as u64)?;
    for &p in corpus.doc_ptr() {
        write_u64(&mut w, p)?;
    }
    for &t in corpus.tokens() {
        write_u32(&mut w, t)?;
    }
    w.flush()
}

/// Deserialize a corpus from `reader`, verifying structural invariants.
pub fn read_corpus<R: Read>(reader: R) -> Result<Corpus, SnapshotError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let vocab_size = read_u64(&mut r)?;
    // Word ids are u32, so no valid snapshot has a larger vocabulary; a
    // bigger V (a flipped high bit) would size every V-wide buffer of the
    // corpus's consumers.
    if vocab_size > u32::MAX as u64 {
        return Err(SnapshotError::Corrupt(format!(
            "vocabulary size {vocab_size} exceeds the u32 word-id range"
        )));
    }
    let vocab_size = vocab_size as usize;
    let num_docs = read_u64(&mut r)? as usize;
    let num_tokens = read_u64(&mut r)? as usize;

    // The header counts are untrusted: cap the up-front reservations so a
    // corrupt header fails at the next `read_exact` (a clean error) instead
    // of aborting the process on an absurd allocation.
    const MAX_PREALLOC: usize = 1 << 20;
    let mut doc_ptr = Vec::with_capacity(num_docs.saturating_add(1).min(MAX_PREALLOC));
    for _ in 0..=num_docs {
        doc_ptr.push(read_u64(&mut r)?);
    }
    if doc_ptr.first() != Some(&0) || doc_ptr.last().copied() != Some(num_tokens as u64) {
        return Err(SnapshotError::Corrupt("doc_ptr endpoints are wrong".into()));
    }
    if doc_ptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt("doc_ptr is not monotone".into()));
    }

    let mut builder = CorpusBuilder::new(vocab_size);
    builder.reserve_tokens(num_tokens.min(MAX_PREALLOC));
    let mut doc = Vec::new();
    for d in 0..num_docs {
        let len = (doc_ptr[d + 1] - doc_ptr[d]) as usize;
        doc.clear();
        for _ in 0..len {
            let w = read_u32(&mut r)?;
            if w as usize >= vocab_size {
                return Err(SnapshotError::Corrupt(format!(
                    "word id {w} out of range (V = {vocab_size})"
                )));
            }
            doc.push(w);
        }
        builder.push_doc(&doc);
    }
    let corpus = builder.build();
    corpus.validate().map_err(SnapshotError::Corrupt)?;
    Ok(corpus)
}

/// Write a corpus snapshot to `path`.
pub fn save_corpus<P: AsRef<Path>>(corpus: &Corpus, path: P) -> io::Result<()> {
    write_corpus(corpus, File::create(path)?)
}

/// Load a corpus snapshot from `path`.
pub fn load_corpus<P: AsRef<Path>>(path: P) -> Result<Corpus, SnapshotError> {
    read_corpus(File::open(path)?)
}

/// Write a vocabulary in the UCI plain-text format (one word per line,
/// line order = word id).
pub fn write_vocab<W: Write>(vocab: &Vocabulary, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for word in vocab.iter() {
        writeln!(w, "{word}")?;
    }
    w.flush()
}

/// Write a vocabulary to `path` in the UCI plain-text format.
pub fn save_vocab<P: AsRef<Path>>(vocab: &Vocabulary, path: P) -> io::Result<()> {
    write_vocab(vocab, File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::DatasetProfile;
    use crate::text::read_vocab;

    fn corpus() -> Corpus {
        DatasetProfile {
            name: "snapshot".into(),
            num_docs: 60,
            vocab_size: 45,
            avg_doc_len: 12.0,
            zipf_exponent: 1.0,
            doc_len_sigma: 0.4,
        }
        .generate(5)
    }

    #[test]
    fn corpus_roundtrip_preserves_everything() {
        let c = corpus();
        let mut buf = Vec::new();
        write_corpus(&c, &mut buf).unwrap();
        let back = read_corpus(buf.as_slice()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn empty_corpus_roundtrips() {
        let c = CorpusBuilder::new(7).build();
        let mut buf = Vec::new();
        write_corpus(&c, &mut buf).unwrap();
        let back = read_corpus(buf.as_slice()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_corpus(&corpus(), &mut buf).unwrap();
        buf[0] = b'X';
        match read_corpus(buf.as_slice()) {
            Err(SnapshotError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut buf = Vec::new();
        write_corpus(&corpus(), &mut buf).unwrap();
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_corpus(buf.as_slice()),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn out_of_range_word_id_is_rejected() {
        let mut b = CorpusBuilder::new(4);
        b.push_doc(&[0, 1, 2, 3]);
        let c = b.build();
        let mut buf = Vec::new();
        write_corpus(&c, &mut buf).unwrap();
        // Patch the last token (final 4 bytes) to an out-of-range id.
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(
            read_corpus(buf.as_slice()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    /// Bytes 12–15 are the high half of the header's `vocab_size`: a flip of
    /// any of their bits puts V past the u32 word-id range, which must be a
    /// typed error, not an allocation sized by V downstream.
    #[test]
    fn a_flipped_high_vocab_size_bit_is_corrupt() {
        let mut clean = Vec::new();
        write_corpus(&corpus(), &mut clean).unwrap();
        for byte in 12..16 {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[byte] ^= 1 << bit;
                assert!(
                    matches!(read_corpus(buf.as_slice()), Err(SnapshotError::Corrupt(_))),
                    "byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn truncated_snapshot_is_an_io_error() {
        let mut buf = Vec::new();
        write_corpus(&corpus(), &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(matches!(
            read_corpus(buf.as_slice()),
            Err(SnapshotError::Io(_))
        ));
    }

    #[test]
    fn file_roundtrip_via_paths() {
        let dir = std::env::temp_dir().join("culda_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.cldc");
        let c = corpus();
        save_corpus(&c, &path).unwrap();
        let back = load_corpus(&path).unwrap();
        assert_eq!(back, c);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn vocab_roundtrip_through_uci_format() {
        let v = Vocabulary::from_words(["gpu", "lda", "topic"]);
        let mut buf = Vec::new();
        write_vocab(&v, &mut buf).unwrap();
        let back = read_vocab(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.id("lda"), Some(1));
        assert_eq!(back.word(2), Some("topic"));
    }
}
