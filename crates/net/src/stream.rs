//! Byte-counting stream wrapper.
//!
//! [`CountingStream`] wraps any `Read + Write` transport and counts every
//! byte that actually crosses it. The coordinator runs all federation
//! sockets through this wrapper so the wire-byte honesty tests can equate
//! *raw socket traffic* — not a reconstruction from message sizes — with
//! the [`CommLedger`](shiftex_fl::CommLedger)'s payload accounting plus
//! the protocol's fixed framing overhead.

use std::io::{self, Read, Write};

/// A `Read + Write` wrapper that counts every byte crossing it. Its owner
/// reads the counts; nothing else holds them.
#[derive(Debug)]
pub struct CountingStream<S> {
    inner: S,
    read: u64,
    written: u64,
}

impl<S> CountingStream<S> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            read: 0,
            written: 0,
        }
    }

    /// Bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.read
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// The wrapped stream (e.g. to set socket timeouts on a `TcpStream`).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped stream.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps, discarding the counters.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Read> Read for CountingStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for CountingStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn counts_exact_bytes_both_ways() {
        let mut s = CountingStream::new(Cursor::new(vec![0u8; 16]));
        s.write_all(&[1, 2, 3, 4, 5]).expect("write");
        assert_eq!(s.bytes_written(), 5);
        s.get_mut().set_position(0);
        let mut buf = [0u8; 3];
        s.read_exact(&mut buf).expect("read");
        assert_eq!((s.bytes_read(), s.bytes_written()), (3, 5));
    }
}
