//! Parameter checkpointing.
//!
//! A minimal, dependency-free binary format for saving and restoring a
//! model's parameter tensors (the `state_dict` role in the paper's
//! PyTorch stack — TGL's training scripts checkpoint the best epoch and
//! reload it before test inference).
//!
//! Format: magic `TGLT`, version u32, tensor count u32, then per
//! tensor: rank u32, dims (u64 each), data (f32 little-endian); last, a
//! u64 FNV-1a checksum of every byte before it. Tensors are identified
//! positionally, so save/load must use the same `parameters()` ordering
//! — which is deterministic for all models in this workspace.

use std::io::{Error, ErrorKind};
use std::path::Path;

use crate::Tensor;

const MAGIC: &[u8; 4] = b"TGLT";
/// 2 added the trailing checksum.
const VERSION: u32 = 2;

/// 64-bit FNV-1a. Every step is a bijection of the running state, so a
/// change confined to one byte always changes the sum.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Saves `params` to `path`.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_params(params: &[Tensor], path: &Path) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        bytes.extend_from_slice(&(p.rank() as u32).to_le_bytes());
        for &d in p.dims() {
            bytes.extend_from_slice(&(d as u64).to_le_bytes());
        }
        p.with_data(|data| {
            for v in data {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        });
    }
    let sum = checksum(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    std::fs::write(path, bytes)
}

fn bad(msg: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, msg.into())
}

/// The unread rest of a checkpoint file.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(bad(format!("truncated checkpoint: {n} more bytes expected, {} left", self.0.len())));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> std::io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> std::io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// Loads a checkpoint produced by [`save_params`] into `params` **in
/// place** (tensor count and shapes must match exactly). The whole file
/// is read and validated first — counts, ranks, dims, exact length,
/// checksum — so on `Err` no parameter has been touched.
///
/// # Errors
///
/// Returns `InvalidData` for a malformed, truncated, over-long or
/// corrupted file or any shape mismatch, or the underlying I/O error.
pub fn load_params(params: &[Tensor], path: &Path) -> std::io::Result<()> {
    let bytes = std::fs::read(path)?;
    let mut r = Reader(&bytes);
    if r.take(4)? != MAGIC {
        return Err(bad("not a TGLT checkpoint"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(bad(format!("checkpoint version {version}, this build reads {VERSION}")));
    }
    let count = r.u32()? as usize;
    if count != params.len() {
        return Err(bad(format!("checkpoint has {count} tensors, model has {}", params.len())));
    }
    let mut payloads = Vec::with_capacity(count);
    for (i, p) in params.iter().enumerate() {
        if r.u32()? as usize != p.rank() {
            return Err(bad(format!("tensor {i}: rank mismatch")));
        }
        for &expect in p.dims() {
            if r.u64()? != expect as u64 {
                return Err(bad(format!("tensor {i}: shape mismatch")));
            }
        }
        payloads.push(r.take(4 * p.numel())?);
    }
    let summed = bytes.len() - r.0.len();
    let stored = r.u64()?;
    if !r.0.is_empty() {
        return Err(bad(format!("{} bytes after the end of the checkpoint", r.0.len())));
    }
    if stored != checksum(&bytes[..summed]) {
        return Err(bad("checkpoint checksum mismatch: the file is corrupted"));
    }
    for (p, payload) in params.iter().zip(payloads) {
        let data: Vec<f32> = payload
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect();
        p.copy_from_slice(&data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_runtime::rng::StdRng;
    use tgl_runtime::rng::SeedableRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tgl-tensor-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_restores_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Tensor::rand_uniform([3, 4], -1.0, 1.0, &mut rng).requires_grad(true);
        let b = Tensor::rand_uniform([5], -1.0, 1.0, &mut rng).requires_grad(true);
        let (va, vb) = (a.to_vec(), b.to_vec());
        let path = tmp("roundtrip.tglt");
        save_params(&[a.clone(), b.clone()], &path).unwrap();
        // Clobber, then restore.
        a.copy_from_slice(&[0.0; 12]);
        b.copy_from_slice(&[0.0; 5]);
        load_params(&[a.clone(), b.clone()], &path).unwrap();
        assert_eq!(a.to_vec(), va);
        assert_eq!(b.to_vec(), vb);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shape_mismatch_is_invalid_data() {
        let path = tmp("mismatch.tglt");
        save_params(&[Tensor::zeros([2, 2])], &path).unwrap();
        let err = load_params(&[Tensor::zeros([4])], &path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err2 = load_params(&[Tensor::zeros([2, 3])], &path).unwrap_err();
        assert_eq!(err2.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn count_mismatch_is_invalid_data() {
        let path = tmp("count.tglt");
        save_params(&[Tensor::zeros([1])], &path).unwrap();
        let err = load_params(&[Tensor::zeros([1]), Tensor::zeros([1])], &path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn garbage_file_rejected() {
        let path = tmp("garbage.tglt");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        let err = load_params(&[Tensor::zeros([1])], &path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    /// Two parameter tensors and a saved checkpoint of them.
    fn saved(name: &str) -> ([Tensor; 2], Vec<u8>, std::path::PathBuf) {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::rand_uniform([2, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([4], -1.0, 1.0, &mut rng);
        let path = tmp(name);
        save_params(&[a.clone(), b.clone()], &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        ([a, b], bytes, path)
    }

    /// Loads `bytes` into zeroed parameters; they must still be zero
    /// behind the `InvalidData` error.
    fn rejected_whole(bytes: &[u8], path: &std::path::Path) -> String {
        std::fs::write(path, bytes).unwrap();
        let params = [Tensor::zeros([2, 3]), Tensor::zeros([4])];
        let err = load_params(&params, path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        for p in &params {
            assert!(p.to_vec().iter().all(|&v| v == 0.0), "half-loaded behind {err}");
        }
        err.to_string()
    }

    #[test]
    fn truncated_file_loads_nothing() {
        let (_, bytes, path) = saved("truncated.tglt");
        // Header (12) + first tensor (4 + 16 + 24) is 56 bytes: cut
        // inside the header, right after tensor 0, inside tensor 1, and
        // inside the checksum.
        for cut in [3, 10, 56, 70, bytes.len() - 3] {
            let msg = rejected_whole(&bytes[..cut], &path);
            assert!(msg.contains("truncated"), "cut at {cut}: {msg}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (_, mut bytes, path) = saved("trailing.tglt");
        bytes.push(0);
        let msg = rejected_whole(&bytes, &path);
        assert!(msg.contains("1 bytes after the end"), "{msg}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flipped_payload_bit_is_rejected() {
        let (params, bytes, path) = saved("flipped.tglt");
        // One bit in tensor 0's data, then two bytes XORed in tensor 1's.
        for flips in [&[(40usize, 0x01u8)][..], &[(70, 0xff), (71, 0x10)]] {
            let mut corrupt = bytes.clone();
            for &(at, mask) in flips {
                corrupt[at] ^= mask;
            }
            let msg = rejected_whole(&corrupt, &path);
            assert!(msg.contains("checksum"), "{msg}");
        }
        // The untouched bytes still load.
        std::fs::write(&path, &bytes).unwrap();
        let restored = [Tensor::zeros([2, 3]), Tensor::zeros([4])];
        load_params(&restored, &path).unwrap();
        assert_eq!(restored[0].to_vec(), params[0].to_vec());
        assert_eq!(restored[1].to_vec(), params[1].to_vec());
        std::fs::remove_file(path).ok();
    }
}
