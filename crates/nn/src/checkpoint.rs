//! Model checkpointing: a compact self-describing binary format for
//! parameter snapshots, so trained analogs (and trainer states) can be saved
//! and restored across runs.

use crate::network::Network;
use grace_tensor::pack::{bytes_to_f32s, extend_f32s_le};
use grace_tensor::{Shape, Tensor};
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"GRACEckp";
const VERSION: u32 = 1;

/// Serializes named parameters to the checkpoint byte format.
pub fn to_bytes(params: &[(String, Tensor)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for (name, tensor) in params {
        let name_bytes = name.as_bytes();
        out.extend_from_slice(&(name_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(name_bytes);
        let dims = tensor.shape().dims();
        out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for &d in dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        extend_f32s_le(&mut out, tensor.as_slice());
    }
    out
}

/// Deserializes a checkpoint produced by [`to_bytes`].
///
/// # Errors
///
/// Returns `InvalidData` on a malformed or truncated stream, or a version /
/// magic mismatch.
pub fn from_bytes(bytes: &[u8]) -> io::Result<Vec<(String, Tensor)>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> io::Result<&[u8]> {
        if *pos + n > bytes.len() {
            return Err(bad("truncated checkpoint"));
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    if take(&mut pos, 8)? != MAGIC {
        return Err(bad("not a GRACE checkpoint"));
    }
    let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(bad("unsupported checkpoint version"));
    }
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| bad("parameter name is not UTF-8"))?;
        let rank = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        if rank > 16 {
            return Err(bad("implausible tensor rank"));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize);
        }
        let shape = Shape::new(dims);
        let data = bytes_to_f32s(take(&mut pos, shape.len() * 4)?);
        out.push((name, Tensor::new(data, shape)));
    }
    if pos != bytes.len() {
        return Err(bad("trailing bytes in checkpoint"));
    }
    Ok(out)
}

/// Saves a network's parameters to a checkpoint file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save(net: &mut Network, path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, to_bytes(&net.export_params()))
}

/// Loads parameters from a checkpoint file into a network built with the
/// same architecture.
///
/// # Errors
///
/// Returns filesystem errors or `InvalidData` for malformed checkpoints.
///
/// # Panics
///
/// Panics (from `import_params`) if the checkpoint's parameter list does not
/// match the network's architecture.
pub fn load(net: &mut Network, path: impl AsRef<Path>) -> io::Result<()> {
    let params = from_bytes(&std::fs::read(path)?)?;
    net.import_params(&params);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{ClassificationDataset, Task};
    use crate::models;

    #[test]
    fn roundtrip_preserves_everything() {
        let mut net = models::mlp_classifier("m", 8, &[16], 3, 5);
        let params = net.export_params();
        let restored = from_bytes(&to_bytes(&params)).expect("well-formed");
        assert_eq!(params.len(), restored.len());
        for ((na, ta), (nb, tb)) in params.iter().zip(&restored) {
            assert_eq!(na, nb);
            assert_eq!(ta.shape(), tb.shape());
            assert_eq!(ta.as_slice(), tb.as_slice());
        }
    }

    #[test]
    fn save_load_reproduces_predictions() {
        let dir = std::env::temp_dir().join("grace_ckpt_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("model.ckpt");
        let ds = ClassificationDataset::synthetic(64, 8, 3, 0.3, 5);
        let mut a = models::mlp_classifier("m", 8, &[16], 3, 5);
        let q_before = ds.quality(&mut a);
        save(&mut a, &path).expect("save");
        // A different random init, then restore.
        let mut b = models::mlp_classifier("m", 8, &[16], 3, 999);
        assert_ne!(ds.quality(&mut b), q_before);
        load(&mut b, &path).expect("load");
        assert_eq!(ds.quality(&mut b), q_before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(from_bytes(b"not a checkpoint").is_err());
        let mut net = models::mlp_classifier("m", 4, &[4], 2, 1);
        let bytes = to_bytes(&net.export_params());
        assert!(from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        assert!(from_bytes(&wrong_version).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(from_bytes(&trailing).is_err());
    }

    #[test]
    fn empty_parameter_list_roundtrips() {
        let restored = from_bytes(&to_bytes(&[])).expect("empty is valid");
        assert!(restored.is_empty());
    }
}
