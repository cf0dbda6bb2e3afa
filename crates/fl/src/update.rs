//! Model updates: the unit of party → aggregator communication.

use serde::{Deserialize, Serialize};

use crate::codec::{CodecError, CodecSpec};
use crate::party::PartyId;

/// One party's contribution to a federated round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelUpdate {
    /// Originating party.
    pub party: PartyId,
    /// Updated flattened model parameters.
    pub params: Vec<f32>,
    /// Number of local training samples (FedAvg weight).
    pub num_samples: usize,
    /// Final local training loss (selector utility signal).
    pub train_loss: f32,
}

impl ModelUpdate {
    /// Encodes the update into its wire frame under `codec`.
    ///
    /// `reference` is the last broadcast global — the vector both endpoints
    /// hold — used by delta-coded specs (others ignore it). The simulator
    /// meters these payloads through [`CommLedger`](crate::CommLedger), so
    /// the byte size is the honest cost of the exchange.
    pub fn encode(&self, codec: &CodecSpec, reference: &[f32]) -> Vec<u8> {
        codec.encode_update(self, reference)
    }

    /// Decodes a wire frame (self-describing: the codec is read from the
    /// frame header). `reference` must match the one used to encode.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the payload is truncated, carries an
    /// unknown codec tag, or holds inconsistent lengths.
    pub fn decode(bytes: &[u8], reference: &[f32]) -> Result<Self, CodecError> {
        CodecSpec::decode_update(bytes, reference)
    }

    /// Exact wire size of this update under `codec` — by construction equal
    /// to `self.encode(codec, _).len()` without paying the encode. This is
    /// what the ledger meters, replacing the seed's `4 × params + 32` guess.
    pub fn encoded_len(&self, codec: &CodecSpec) -> usize {
        codec.update_len(self.params.len())
    }

    /// Ships the update across the wire and back: encode against
    /// `reference`, then decode what the aggregator would see. Lossless
    /// codecs return the update unchanged without paying the roundtrip.
    pub fn transport(self, codec: &CodecSpec, reference: &[f32]) -> Self {
        if codec.is_lossless() {
            return self;
        }
        let wire = self.encode(codec, reference);
        // lint:allow(panic): decoding a frame this codec just encoded cannot fail
        Self::decode(&wire, reference).expect("self-encoded update decodes")
    }

    /// Like [`ModelUpdate::transport`] but with party-side error feedback:
    /// `feedback` accumulates the coordinates the lossy encode dropped, and
    /// is added to the raw parameters before encoding (EF-SGD). The caller
    /// owns one accumulator per `(stream, party)` — the
    /// [`ScenarioEngine`](crate::ScenarioEngine) holds them for scenario
    /// runs. Wire sizes are value-independent, so metering is unchanged.
    pub fn transport_with_feedback(
        mut self,
        codec: &CodecSpec,
        reference: &[f32],
        feedback: &mut Vec<f32>,
    ) -> Self {
        if codec.is_lossless() {
            return self;
        }
        feedback.resize(self.params.len(), 0.0);
        for (p, e) in self.params.iter_mut().zip(feedback.iter()) {
            *p += *e;
        }
        let compensated = self.params.clone();
        let out = self.transport(codec, reference);
        for ((e, &c), &d) in feedback
            .iter_mut()
            .zip(compensated.iter())
            .zip(out.params.iter())
        {
            *e = c - d;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update() -> ModelUpdate {
        ModelUpdate {
            party: PartyId(3),
            params: vec![1.0, -2.0, 0.5],
            num_samples: 42,
            train_loss: 0.7,
        }
    }

    #[test]
    fn roundtrips_through_bytes() {
        let u = update();
        for codec in [CodecSpec::dense(), CodecSpec::dense().with_delta()] {
            let b = u.encode(&codec, &[0.5, 0.5, 0.5]);
            let back = ModelUpdate::decode(&b, &[0.5, 0.5, 0.5]).expect("valid payload");
            assert_eq!(back, u, "{codec}");
        }
    }

    #[test]
    fn encoded_len_is_exact_for_every_codec() {
        let u = update();
        for codec in [
            CodecSpec::dense(),
            CodecSpec::quant8(2),
            CodecSpec::topk(0.4).with_delta(),
        ] {
            assert_eq!(
                u.encoded_len(&codec),
                u.encode(&codec, &[]).len(),
                "{codec}"
            );
        }
    }

    #[test]
    fn transport_is_identity_for_lossless_codecs() {
        let u = update();
        assert_eq!(u.clone().transport(&CodecSpec::dense(), &[]), u);
        let roundtripped = u
            .clone()
            .transport(&CodecSpec::quant8(2), &[])
            .params
            .clone();
        for (&a, &b) in u.params.iter().zip(roundtripped.iter()) {
            assert!((a - b).abs() <= (3.0f32 / 255.0) * 0.5 + 1e-5);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(ModelUpdate::decode(b"not a frame", &[]).is_err());
    }
}
