//! Seeded TFRecord datasets and the checks on delivered bytes.

use std::path::Path;

use tfrecord::synth::{self, DatasetSpec};
use tfrecord::RecordReader;

/// ImageNet-like mean sample size (the paper's 100 GiB set averages
/// ≈116 KiB per image).
pub const SAMPLE_BYTES: u64 = 112 << 10;

/// A dataset materialised under the PFS directory, plus what every shard
/// must decode to.
pub struct Dataset {
    pub names: Vec<String>,
    pub sizes: Vec<u64>,
    /// Payload lengths of each shard's records.
    layout: Vec<Vec<u64>>,
    /// Sample id of each shard's first record.
    first_id: Vec<u64>,
    pub total_bytes: u64,
}

impl Dataset {
    /// Generate `samples` records packed into shards of at most
    /// `shard_bytes` under `dir`.
    pub fn generate(
        dir: &Path,
        samples: u64,
        shard_bytes: u64,
        seed: u64,
    ) -> std::io::Result<Self> {
        let spec = DatasetSpec {
            num_samples: samples,
            mean_sample_bytes: SAMPLE_BYTES,
            size_jitter: 0.25,
            shard_bytes,
            seed,
        };
        let written = synth::generate(&spec, dir).map_err(std::io::Error::other)?;
        // Put the data on disk now, so the kernel's delayed write-back of
        // the fresh dataset does not compete with the measured phase.
        for shard in &written.shards {
            std::fs::File::open(shard)?.sync_all()?;
        }
        std::fs::File::open(dir)?.sync_all()?;
        let layout = spec.shard_layout();
        let mut first_id = Vec::with_capacity(layout.len());
        let mut next = 0;
        for shard in &layout {
            first_id.push(next);
            next += shard.len() as u64;
        }
        let sizes: Vec<u64> = layout
            .iter()
            .map(|s| s.iter().map(|l| l + tfrecord::FRAME_OVERHEAD).sum())
            .collect();
        let names = (0..layout.len()).map(synth::shard_name).collect();
        let total_bytes = sizes.iter().sum();
        assert_eq!(
            total_bytes, written.total_bytes,
            "layout disagrees with files"
        );
        Ok(Self {
            names,
            sizes,
            layout,
            first_id,
            total_bytes,
        })
    }

    pub fn shards(&self) -> usize {
        self.names.len()
    }

    /// Decode a whole shard as delivered: every record's length and data
    /// CRC must check, and the records must be this shard's samples, in
    /// order, with their labels.
    pub fn verify_shard(&self, shard: usize, bytes: &[u8]) -> bool {
        if bytes.len() as u64 != self.sizes[shard] {
            return false;
        }
        let mut reader = RecordReader::new(bytes);
        let mut id = self.first_id[shard];
        for &len in &self.layout[shard] {
            match reader.next_record_ref() {
                Ok(Some(rec))
                    if rec.len() as u64 == len
                        && synth::parse_sample_header(rec) == Some((id, id % 1000)) =>
                {
                    id += 1;
                }
                _ => return false,
            }
        }
        matches!(reader.next_record_ref(), Ok(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_shards_verify_and_corruption_does_not() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-dataset-{}", std::process::id()));
        let ds = Dataset::generate(&dir, 24, 256 << 10, 5).unwrap();
        assert!(ds.shards() > 4);
        for i in 0..ds.shards() {
            let mut bytes = std::fs::read(dir.join(&ds.names[i])).unwrap();
            assert!(ds.verify_shard(i, &bytes));
            let mid = bytes.len() / 2;
            bytes[mid] ^= 1;
            assert!(!ds.verify_shard(i, &bytes));
        }
        let first = std::fs::read(dir.join(&ds.names[0])).unwrap();
        assert!(
            !ds.verify_shard(1, &first),
            "a shard must not verify as another"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
