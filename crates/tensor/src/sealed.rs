//! Sealed files — `magic | body | crc32(body)` — and the atomic write
//! that puts one on disk.
//!
//! Every durable file in the workspace that carries a whole-file checksum
//! (feature-store meta, data shards, parity meta, parity shards) is a
//! sealed file; what a kind adds is the layout of its body. The module
//! lives beside [`crc32`] for the same reason the checksum does:
//! `betty-tensor` is the lowest crate both `betty-data` and `betty-nn`
//! depend on, and the checkpoint and dataset writers share
//! [`write_atomic`] with the shard writer.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use crate::crc32;

/// Frames `body` as `magic | body | crc32(body)` (CRC little-endian).
pub fn seal(magic: &[u8], body: &[u8]) -> Vec<u8> {
    let mut file = Vec::with_capacity(magic.len() + body.len() + 4);
    file.extend_from_slice(magic);
    file.extend_from_slice(body);
    file.extend_from_slice(&crc32(body).to_le_bytes());
    file
}

/// Opens a sealed file in place: finds which of `magics` the bytes start
/// with, checks the trailing CRC over everything between, and returns
/// `(index into magics, body)` with the body borrowed from `bytes` — one
/// CRC pass, no copy, and no slice taken before its length is known to
/// be there.
///
/// # Errors
///
/// `(byte offset, detail)` of the first failure: a file too short to
/// hold a magic and a checksum (offset = its length), a magic that is
/// none of `magics` (offset 0), or a CRC mismatch (offset of the stored
/// CRC).
pub fn unseal<'a>(bytes: &'a [u8], magics: &[&[u8]]) -> Result<(usize, &'a [u8]), (u64, String)> {
    let Some(which) = magics.iter().position(|m| bytes.starts_with(m)) else {
        return Err(if magics.iter().all(|m| bytes.len() < m.len()) {
            (bytes.len() as u64, "file truncated before its magic".into())
        } else {
            (0, "magic not recognised".into())
        });
    };
    let Some((body, stored)) = bytes[magics[which].len()..].split_last_chunk::<4>() else {
        return Err((bytes.len() as u64, "file truncated before its CRC".into()));
    };
    if crc32(body) != u32::from_le_bytes(*stored) {
        return Err(((bytes.len() - 4) as u64, "CRC mismatch".into()));
    }
    Ok((which, body))
}

/// Writes `bytes` to `path` so that `path` holds either its old content
/// or the complete new image, never a torn mix: same-directory
/// `<name>.tmp` → `write_all` → `sync_all` → `rename`, then an fsync of
/// the containing directory ([`sync_dir`]) so the rename itself survives
/// a crash.
///
/// # Errors
///
/// The underlying I/O error; `InvalidInput` if `path` has no file name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    replace_file(path, bytes)?;
    sync_dir(path.parent().unwrap_or(Path::new("")));
    Ok(())
}

/// [`write_atomic`] without the directory fsync, for a caller that writes
/// many files into one directory and calls [`sync_dir`] once after the
/// last of them.
///
/// # Errors
///
/// The underlying I/O error; `InvalidInput` if `path` has no file name.
pub fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let Some(name) = path.file_name() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cannot write to '{}': no file name", path.display()),
        ));
    };
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)
}

/// Fsyncs directory `dir` (the empty path means the current directory) so
/// renames made in it are durable. Best effort: the files' contents are
/// already synced, and a filesystem that cannot fsync a directory handle
/// (non-unix platforms, some network mounts) must not fail a save that
/// has otherwise succeeded.
pub fn sync_dir(dir: &Path) {
    #[cfg(unix)]
    {
        let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
        if let Ok(handle) = fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = dir;
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &[u8] = b"MAGIC--A";
    const B: &[u8] = b"MAGIC--B";

    #[test]
    fn unseal_returns_the_sealed_body_and_which_magic() {
        for body in [&b""[..], b"x", b"twelve bytes"] {
            let file = seal(B, body);
            assert_eq!(file.len(), B.len() + body.len() + 4);
            assert_eq!(unseal(&file, &[A, B]), Ok((1, body)));
            assert_eq!(unseal(&file, &[A]).unwrap_err().0, 0, "B is not among [A]");
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_is_located() {
        let file = seal(A, b"some body bytes");
        for cut in 0..file.len() {
            let (offset, detail) = unseal(&file[..cut], &[A, B]).unwrap_err();
            // Short of magic + CRC the length is the offset; past that
            // the last four bytes are read as a CRC that does not match.
            let expect = if cut < A.len() + 4 { cut } else { cut - 4 };
            assert_eq!(offset, expect as u64, "cut {cut}: {detail}");
        }
        for bit in 0..file.len() * 8 {
            let mut flipped = file.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let (offset, _) = unseal(&flipped, &[A, B]).unwrap_err();
            let expect = if bit / 8 < A.len() { 0 } else { file.len() - 4 };
            assert_eq!(offset, expect as u64, "bit {bit}");
        }
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("betty-sealed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        std::fs::write(&path, b"old content").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!dir.join("file.bin.tmp").exists(), "tmp file left behind");
        let err = write_atomic(Path::new("/"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
