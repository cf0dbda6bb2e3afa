//! Simulated Trusted Execution Environment (§5.3 of the paper).
//!
//! The paper optionally runs drift detection, clustering and expert updates
//! inside Intel SGX / AMD SEV enclaves so intermediate artefacts
//! (embeddings, drift statistics) are never exposed to the aggregator
//! process. Real enclaves are hardware we do not have, so this crate
//! preserves the two properties the design depends on:
//!
//! 1. **The trust boundary** — only [`SealedBlob`]s cross it. Payloads are
//!    sealed with a keystream cipher + integrity tag; the "aggregator" code
//!    outside the enclave cannot read or undetectably modify them.
//! 2. **The cost model** — every enclave invocation charges a configurable
//!    overhead factor (default 5 %, the figure the paper cites for AMD SEV)
//!    which the harness reports alongside the plaintext path.
//!
//! This is a **simulation for benchmarking and architecture validation, not
//! a cryptographic implementation** — the cipher is a keyed xorshift
//! keystream, fine for modelling dataflow, useless against a real adversary.
//!
//! # Example
//!
//! ```
//! use shiftex_tee::{Enclave, SealedBlob};
//!
//! let enclave = Enclave::new(42, 0.05);
//! let sealed = enclave.seal(b"embedding payload");
//! assert_ne!(sealed.ciphertext(), b"embedding payload");
//! let open = enclave.unseal(&sealed).expect("valid seal");
//! assert_eq!(open, b"embedding payload");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// An opaque sealed payload: ciphertext plus integrity tag.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealedBlob {
    ciphertext: Vec<u8>,
    tag: u64,
}

impl SealedBlob {
    /// The (unreadable) ciphertext bytes.
    pub fn ciphertext(&self) -> &[u8] {
        &self.ciphertext
    }

    /// Size on the wire.
    pub fn len(&self) -> usize {
        self.ciphertext.len() + 8
    }

    /// `true` for an empty payload.
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }
}

/// Errors from enclave operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// The integrity tag did not verify (tampered or wrong enclave key).
    IntegrityFailure,
}

impl std::fmt::Display for TeeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeeError::IntegrityFailure => write!(f, "sealed payload failed integrity check"),
        }
    }
}

impl std::error::Error for TeeError {}

/// Cumulative cost accounting for enclave usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnclaveCosts {
    /// Total plaintext bytes processed inside the enclave.
    pub bytes_processed: u64,
    /// Number of enclave calls (ECALLs).
    pub calls: u64,
    /// Simulated overhead seconds charged on top of plaintext compute.
    pub overhead_seconds: f64,
}

/// A simulated enclave with a sealing key, an attestation measurement and an
/// overhead model.
#[derive(Debug)]
pub struct Enclave {
    key: u64,
    overhead_factor: f64,
    costs: std::cell::RefCell<EnclaveCosts>,
}

impl Enclave {
    /// Creates an enclave with a sealing key and a relative overhead factor
    /// (0.05 = 5 % extra cost per enclave call, the paper's SEV figure).
    ///
    /// # Panics
    ///
    /// Panics if `overhead_factor` is negative.
    pub fn new(key: u64, overhead_factor: f64) -> Self {
        assert!(
            overhead_factor >= 0.0,
            "overhead factor must be non-negative"
        );
        Self {
            key,
            overhead_factor,
            costs: std::cell::RefCell::new(EnclaveCosts::default()),
        }
    }

    /// Attestation measurement: a stable digest of the enclave identity.
    /// Clients compare this against an expected value before provisioning
    /// secrets — here it binds the key identity and code version.
    pub fn measurement(&self) -> u64 {
        let mut h = self.key ^ 0x5845_5446_4948_5353; // "SSHIFTEX" ^ key
        for b in env!("CARGO_PKG_VERSION").bytes() {
            h = splitmix(h ^ b as u64);
        }
        h
    }

    /// Seals a payload for transport into/out of the enclave.
    pub fn seal(&self, plaintext: &[u8]) -> SealedBlob {
        let mut ciphertext = plaintext.to_vec();
        keystream_xor(self.key, &mut ciphertext);
        let tag = tag_of(self.key, &ciphertext);
        SealedBlob { ciphertext, tag }
    }

    /// Unseals a payload, verifying integrity.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::IntegrityFailure`] when the tag does not verify
    /// (payload tampered with, or sealed by a different enclave).
    pub fn unseal(&self, blob: &SealedBlob) -> Result<Vec<u8>, TeeError> {
        if tag_of(self.key, &blob.ciphertext) != blob.tag {
            return Err(TeeError::IntegrityFailure);
        }
        let mut plaintext = blob.ciphertext.clone();
        keystream_xor(self.key, &mut plaintext);
        Ok(plaintext)
    }

    /// Runs `f` "inside" the enclave over a sealed input, producing a sealed
    /// output and charging the overhead model. This is the shape of the
    /// paper's enclave-side drift detection: sealed embeddings in, sealed
    /// detection verdicts out.
    ///
    /// # Errors
    ///
    /// Propagates integrity failures from unsealing.
    pub fn run<T, U>(
        &self,
        input: &SealedBlob,
        f: impl FnOnce(T) -> U,
    ) -> Result<SealedBlob, TeeError>
    where
        T: serde::de::DeserializeOwned,
        U: Serialize,
    {
        // The elapsed time feeds `costs`, never the training or selection path.
        // lint:allow(det-clock): models enclave overhead for the cost report only
        let start = std::time::Instant::now();
        let plaintext = self.unseal(input)?;
        let value: T =
            serde_json::from_slice(&plaintext).map_err(|_| TeeError::IntegrityFailure)?;
        let out = f(value);
        let out_bytes = serde_json::to_vec(&out).expect("enclave output serialises");
        let sealed = self.seal(&out_bytes);
        let elapsed = start.elapsed().as_secs_f64();
        let mut costs = self.costs.borrow_mut();
        costs.bytes_processed += (plaintext.len() + out_bytes.len()) as u64;
        costs.calls += 1;
        costs.overhead_seconds += elapsed * self.overhead_factor;
        Ok(sealed)
    }

    /// Seals an arbitrary serialisable value (client-side helper).
    pub fn seal_value<T: Serialize>(&self, value: &T) -> SealedBlob {
        self.seal(&serde_json::to_vec(value).expect("value serialises"))
    }

    /// Unseals into a typed value.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::IntegrityFailure`] on tag or decode failure.
    pub fn unseal_value<T: serde::de::DeserializeOwned>(
        &self,
        blob: &SealedBlob,
    ) -> Result<T, TeeError> {
        let bytes = self.unseal(blob)?;
        serde_json::from_slice(&bytes).map_err(|_| TeeError::IntegrityFailure)
    }

    /// Cost counters so far.
    pub fn costs(&self) -> EnclaveCosts {
        *self.costs.borrow()
    }

    /// Wire representation of a sealed blob.
    pub fn to_wire(blob: &SealedBlob) -> Vec<u8> {
        serde_json::to_vec(blob).expect("blob serialises")
    }
}

/// Keyed xorshift keystream XORed over the buffer (simulation-grade).
fn keystream_xor(key: u64, buf: &mut [u8]) {
    let mut state = splitmix(key ^ 0x9e37_79b9_7f4a_7c15);
    for chunk in buf.chunks_mut(8) {
        state = splitmix(state);
        for (i, b) in chunk.iter_mut().enumerate() {
            *b ^= (state >> (8 * i)) as u8;
        }
    }
}

/// Simple keyed integrity tag (FNV-style over keyed stream).
fn tag_of(key: u64, data: &[u8]) -> u64 {
    let mut h = splitmix(key ^ 0x1357_9bdf_2468_ace0);
    for &b in data {
        h = splitmix(h ^ b as u64);
    }
    h
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrip() {
        let enclave = Enclave::new(7, 0.05);
        let msg = b"latent embeddings batch 17";
        let sealed = enclave.seal(msg);
        assert_ne!(sealed.ciphertext(), msg.as_slice());
        assert_eq!(enclave.unseal(&sealed).unwrap(), msg);
    }

    #[test]
    fn tampering_is_detected() {
        let enclave = Enclave::new(7, 0.05);
        let mut sealed = enclave.seal(b"stats");
        sealed.ciphertext[0] ^= 0xff;
        assert_eq!(enclave.unseal(&sealed), Err(TeeError::IntegrityFailure));
    }

    #[test]
    fn wrong_enclave_cannot_unseal() {
        let a = Enclave::new(1, 0.0);
        let b = Enclave::new(2, 0.0);
        let sealed = a.seal(b"secret");
        assert!(b.unseal(&sealed).is_err());
    }

    #[test]
    fn run_processes_typed_values_and_charges_costs() {
        let enclave = Enclave::new(9, 0.05);
        // Enclave-side "drift detection": threshold a vector of MMD scores.
        let scores = vec![0.01f32, 0.5, 0.02, 0.9];
        let sealed_in = enclave.seal_value(&scores);
        let sealed_out = enclave
            .run(&sealed_in, |s: Vec<f32>| {
                s.into_iter().map(|v| v > 0.1).collect::<Vec<bool>>()
            })
            .unwrap();
        let verdicts: Vec<bool> = enclave.unseal_value(&sealed_out).unwrap();
        assert_eq!(verdicts, vec![false, true, false, true]);
        let costs = enclave.costs();
        assert_eq!(costs.calls, 1);
        assert!(costs.bytes_processed > 0);
    }

    #[test]
    fn measurement_is_stable_and_key_bound() {
        let a = Enclave::new(1, 0.0);
        let a2 = Enclave::new(1, 0.0);
        let b = Enclave::new(2, 0.0);
        assert_eq!(a.measurement(), a2.measurement());
        assert_ne!(a.measurement(), b.measurement());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let enclave = Enclave::new(3, 0.0);
        let sealed = enclave.seal(b"");
        assert!(sealed.is_empty());
        assert_eq!(enclave.unseal(&sealed).unwrap(), Vec::<u8>::new());
    }
}
