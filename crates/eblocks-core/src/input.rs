//! Bounded input reads: every file the tool chain reads for a user goes
//! through [`read_input`], so a path like `/dev/zero` fails fast.

use std::io::{Error, ErrorKind, Read};
use std::path::Path;

/// The most bytes the tool chain takes from one input: a file it reads or
/// a daemon socket request line. It is 4 MiB; every shipped netlist is
/// under 3 KB, so real inputs sit far below it, and a path like
/// `/dev/zero` costs at most this much memory.
pub const MAX_INPUT_BYTES: usize = 4 << 20;

/// Reads the file at `path`, refusing one longer than [`MAX_INPUT_BYTES`]
/// after reading at most one byte past the limit.
///
/// # Errors
///
/// The I/O error, or a [`FileTooLarge`](ErrorKind::FileTooLarge) one whose
/// message names the limit.
pub fn read_input(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?
        .take(MAX_INPUT_BYTES as u64 + 1)
        .read_to_end(&mut bytes)?;
    if bytes.len() > MAX_INPUT_BYTES {
        return Err(Error::new(
            ErrorKind::FileTooLarge,
            format!("file is over the limit of {MAX_INPUT_BYTES} bytes"),
        ));
    }
    Ok(bytes)
}

/// [`read_input`] for a text file.
///
/// # Errors
///
/// As [`read_input`], or [`std::fs::read_to_string`]'s
/// [`InvalidData`](ErrorKind::InvalidData) error for one that is not UTF-8.
pub fn read_text(path: &Path) -> std::io::Result<String> {
    String::from_utf8(read_input(path)?)
        .map_err(|_| Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_up_to_the_limit_and_refuses_past_it() {
        let dir = std::env::temp_dir().join(format!("eblocks-core-input-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("input.txt");
        std::fs::write(&path, vec![b'#'; MAX_INPUT_BYTES]).unwrap();
        assert_eq!(read_text(&path).unwrap().len(), MAX_INPUT_BYTES);
        std::fs::write(&path, vec![b'#'; MAX_INPUT_BYTES + 1]).unwrap();
        let error = read_input(&path).unwrap_err();
        assert_eq!(error.kind(), ErrorKind::FileTooLarge);
        assert_eq!(error.to_string(), "file is over the limit of 4194304 bytes");
        std::fs::write(&path, [0xff, 0xfe]).unwrap();
        let error = read_text(&path).unwrap_err();
        let std_error = std::fs::read_to_string(&path).unwrap_err();
        assert_eq!(error.to_string(), std_error.to_string());
        std::fs::remove_dir_all(&dir).ok();
    }
}
