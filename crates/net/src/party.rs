//! Party identities and protocol session identifiers.

use std::fmt;

use setupfree_wire::{codec, Decode, Encode, Reader, WireError, Writer};

/// The identity of one of the `n` designated parties (`P_1 … P_n` in the
/// paper, 0-based here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartyId(pub usize);

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl PartyId {
    /// The underlying index in `[0, n)`.
    pub fn index(self) -> usize {
        self.0
    }
}

impl Encode for PartyId {
    fn encode(&self, w: &mut Writer) {
        w.write_u32(self.0 as u32);
    }
}

impl Decode for PartyId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PartyId(r.read_u32()? as usize))
    }
}

/// A protocol session identifier (the paper's `ID`).
///
/// Session identifiers are hierarchical: sub-protocol instances derive their
/// identifier from the parent's (e.g. the AVSS instance with dealer `j`
/// inside coin `ID` is `⟨ID, "avss", j⟩`).  The byte representation is used
/// for signature / VRF domain separation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Sid(Vec<u8>);

impl Sid {
    /// Creates a top-level session identifier from a label.
    pub fn new(label: &str) -> Self {
        let mut bytes = Vec::with_capacity(label.len() + 9);
        bytes.extend_from_slice(&(label.len() as u64).to_le_bytes());
        bytes.extend_from_slice(label.as_bytes());
        Sid(bytes)
    }

    /// Derives a child identifier `⟨self, label, index⟩`.
    pub fn derive(&self, label: &str, index: usize) -> Self {
        let mut bytes = self.0.clone();
        bytes.extend_from_slice(&(label.len() as u64).to_le_bytes());
        bytes.extend_from_slice(label.as_bytes());
        bytes.extend_from_slice(&(index as u64).to_le_bytes());
        Sid(bytes)
    }

    /// The canonical byte representation (signature/VRF context string).
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for Sid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sid:")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

codec!(struct Sid(_));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_injective_across_labels_and_indices() {
        let root = Sid::new("coin");
        let a = root.derive("avss", 1);
        let b = root.derive("avss", 2);
        let c = root.derive("seeding", 1);
        let d = Sid::new("coin2").derive("avss", 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn derive_nests() {
        let root = Sid::new("election");
        let coin = root.derive("coin", 0);
        let avss = coin.derive("avss", 3);
        assert!(avss.as_bytes().len() > coin.as_bytes().len());
    }

    #[test]
    fn wire_roundtrip() {
        let sid = Sid::new("x").derive("y", 9);
        let bytes = setupfree_wire::to_bytes(&sid);
        assert_eq!(setupfree_wire::from_bytes::<Sid>(&bytes).unwrap(), sid);
        let pid = PartyId(12);
        assert_eq!(
            setupfree_wire::from_bytes::<PartyId>(&setupfree_wire::to_bytes(&pid)).unwrap(),
            pid
        );
    }

    #[test]
    fn labels_cannot_collide_by_concatenation() {
        // ("ab", 1) under parent x vs ("a", then "b1") must differ because of
        // length prefixes.
        let root = Sid::new("x");
        let a = root.derive("ab", 1);
        let b = root.derive("a", 1).derive("b", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PartyId(3).to_string(), "P3");
        assert!(Sid::new("t").to_string().starts_with("sid:"));
    }
}
