//! Subscriber identifiers: PLMN, SUPI, SUCI and 5G-GUTI.
//!
//! The registration flow of the paper's Figure 5 begins with the UE sending
//! its SUCI (the ECIES-concealed SUPI) or a previously assigned GUTI. The
//! OTA feasibility test (§V-B6) additionally depends on the PLMN: the COTS
//! UE only attaches when the SIM is programmed with the test network
//! `001/01`, which this module models.

use crate::ecies::{self, EciesCiphertext, HomeNetworkKeyPair};
use crate::CryptoError;
use serde::{Deserialize, Serialize};

/// A Public Land Mobile Network identity: MCC (3 digits) + MNC (2–3 digits).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Plmn {
    mcc: String,
    mnc: String,
}

impl Plmn {
    /// The test PLMN `001/01` used by the paper's OTA setup (Table IV).
    #[must_use]
    pub fn test_network() -> Self {
        Plmn {
            mcc: "001".to_owned(),
            mnc: "01".to_owned(),
        }
    }

    /// Creates a PLMN from its mobile country and network codes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedIdentifier`] unless the MCC is
    /// exactly 3 digits and the MNC is 2 or 3 digits.
    pub fn new(mcc: &str, mnc: &str) -> Result<Self, CryptoError> {
        let digits = |s: &str| s.chars().all(|c| c.is_ascii_digit());
        if mcc.len() != 3 || !digits(mcc) {
            return Err(CryptoError::MalformedIdentifier(format!(
                "MCC must be 3 digits: {mcc:?}"
            )));
        }
        if !(mnc.len() == 2 || mnc.len() == 3) || !digits(mnc) {
            return Err(CryptoError::MalformedIdentifier(format!(
                "MNC must be 2-3 digits: {mnc:?}"
            )));
        }
        Ok(Plmn {
            mcc: mcc.to_owned(),
            mnc: mnc.to_owned(),
        })
    }

    /// The mobile country code.
    #[must_use]
    pub fn mcc(&self) -> &str {
        &self.mcc
    }

    /// The mobile network code.
    #[must_use]
    pub fn mnc(&self) -> &str {
        &self.mnc
    }
}

impl std::fmt::Display for Plmn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.mcc, self.mnc)
    }
}

/// Subscription Permanent Identifier in IMSI format: PLMN + MSIN.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Supi {
    plmn: Plmn,
    msin: String,
}

impl Supi {
    /// Creates a SUPI from a PLMN and an MSIN of up to 10 digits.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedIdentifier`] for a non-digit or
    /// over-long MSIN.
    pub fn new(plmn: Plmn, msin: &str) -> Result<Self, CryptoError> {
        if msin.is_empty() || msin.len() > 10 || !msin.chars().all(|c| c.is_ascii_digit()) {
            return Err(CryptoError::MalformedIdentifier(format!(
                "MSIN must be 1-10 digits: {msin:?}"
            )));
        }
        Ok(Supi {
            plmn,
            msin: msin.to_owned(),
        })
    }

    /// Parses the `imsi-<digits>` URI form used on service-based interfaces.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedIdentifier`] when the prefix or digit
    /// count is wrong. A 2-digit MNC split is assumed, matching the paper's
    /// test PLMN.
    pub fn parse(s: &str) -> Result<Self, CryptoError> {
        let digits = s.strip_prefix("imsi-").ok_or_else(|| {
            CryptoError::MalformedIdentifier(format!("missing imsi- prefix: {s:?}"))
        })?;
        if digits.len() < 6 {
            return Err(CryptoError::MalformedIdentifier(format!(
                "IMSI too short: {s:?}"
            )));
        }
        let plmn = Plmn::new(&digits[..3], &digits[3..5])?;
        Supi::new(plmn, &digits[5..])
    }

    /// The home PLMN.
    #[must_use]
    pub fn plmn(&self) -> &Plmn {
        &self.plmn
    }

    /// The mobile subscriber identification number.
    #[must_use]
    pub fn msin(&self) -> &str {
        &self.msin
    }

    /// Conceals this SUPI into a SUCI with the null scheme (MSIN in clear).
    ///
    /// 3GPP permits the null scheme for unauthenticated emergency sessions;
    /// the simulator uses it to demonstrate what an eavesdropper gains when
    /// concealment is off.
    #[must_use]
    pub fn conceal_null(&self) -> Suci {
        Suci {
            plmn: self.plmn.clone(),
            routing_indicator: 0,
            hn_key_id: 0,
            scheme: ProtectionScheme::Null,
            scheme_output: bcd_encode(&self.msin),
        }
    }

    /// Conceals this SUPI with ECIES Profile A against `hn_public`.
    ///
    /// `ephemeral_private` must be fresh per call (the USIM model draws it
    /// from the deterministic simulation RNG).
    #[must_use]
    pub fn conceal_profile_a(
        &self,
        hn_key_id: u8,
        hn_public: &[u8; 32],
        ephemeral_private: &[u8; 32],
    ) -> Suci {
        let ct = ecies::conceal(&bcd_encode(&self.msin), hn_public, ephemeral_private);
        Suci {
            plmn: self.plmn.clone(),
            routing_indicator: 0,
            hn_key_id,
            scheme: ProtectionScheme::ProfileA,
            scheme_output: ct.to_bytes(),
        }
    }
}

impl std::fmt::Display for Supi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "imsi-{}{}{}", self.plmn.mcc, self.plmn.mnc, self.msin)
    }
}

/// SUCI protection scheme identifiers (TS 33.501 Annex C.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtectionScheme {
    /// Null scheme: the MSIN travels in clear BCD.
    Null,
    /// ECIES Profile A (Curve25519).
    ProfileA,
}

impl ProtectionScheme {
    /// The 3GPP scheme identifier octet.
    #[must_use]
    pub fn id(self) -> u8 {
        match self {
            ProtectionScheme::Null => 0x0,
            ProtectionScheme::ProfileA => 0x1,
        }
    }

    /// Parses a scheme identifier octet.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownScheme`] for identifiers other than
    /// null (0) and Profile A (1).
    pub fn from_id(id: u8) -> Result<Self, CryptoError> {
        match id {
            0x0 => Ok(ProtectionScheme::Null),
            0x1 => Ok(ProtectionScheme::ProfileA),
            other => Err(CryptoError::UnknownScheme(other)),
        }
    }
}

/// Subscription Concealed Identifier.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Suci {
    /// Home network PLMN (always in clear; routing needs it).
    pub plmn: Plmn,
    /// Routing indicator for the home-network UDM selection.
    pub routing_indicator: u16,
    /// Home-network public-key identifier.
    pub hn_key_id: u8,
    /// Protection scheme in use.
    pub scheme: ProtectionScheme,
    /// Scheme output: clear BCD for null, `ephemeral || ct || mac` for
    /// Profile A.
    pub scheme_output: Vec<u8>,
}

impl Suci {
    /// Recovers the SUPI, de-concealing with `hn_key` when Profile A is in
    /// use (the SIDF role inside the UDM).
    ///
    /// # Errors
    ///
    /// * [`CryptoError::UnknownKeyId`] when the SUCI references a key this
    ///   home network does not hold.
    /// * [`CryptoError::MacMismatch`] for tampered ciphertexts.
    /// * [`CryptoError::MalformedIdentifier`] if the decrypted MSIN is not
    ///   valid BCD digits.
    pub fn deconceal(&self, hn_key: &HomeNetworkKeyPair) -> Result<Supi, CryptoError> {
        let msin_bcd = match self.scheme {
            ProtectionScheme::Null => self.scheme_output.clone(),
            ProtectionScheme::ProfileA => {
                if self.hn_key_id != hn_key.id() {
                    return Err(CryptoError::UnknownKeyId(self.hn_key_id));
                }
                let ct = EciesCiphertext::from_bytes(&self.scheme_output)?;
                hn_key.deconceal(&ct)?
            }
        };
        let msin = bcd_decode(&msin_bcd)?;
        Supi::new(self.plmn.clone(), &msin)
    }
}

impl std::fmt::Display for Suci {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "suci-0-{}-{}-{}-{}-{}-{}",
            self.plmn.mcc,
            self.plmn.mnc,
            self.routing_indicator,
            self.scheme.id(),
            self.hn_key_id,
            crate::hex::encode(&self.scheme_output)
        )
    }
}

/// 5G Globally Unique Temporary Identity (TS 23.003 §2.10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Guti {
    /// AMF region identifier.
    pub amf_region_id: u8,
    /// AMF set identifier (10 bits).
    pub amf_set_id: u16,
    /// AMF pointer (6 bits).
    pub amf_pointer: u8,
    /// 5G-TMSI.
    pub tmsi: u32,
}

impl Guti {
    /// Creates a GUTI, masking the set id and pointer to their field widths.
    #[must_use]
    pub fn new(amf_region_id: u8, amf_set_id: u16, amf_pointer: u8, tmsi: u32) -> Self {
        Guti {
            amf_region_id,
            amf_set_id: amf_set_id & 0x03ff,
            amf_pointer: amf_pointer & 0x3f,
            tmsi,
        }
    }
}

impl std::fmt::Display for Guti {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "5g-guti-{:02x}{:03x}{:02x}-{:08x}",
            self.amf_region_id, self.amf_set_id, self.amf_pointer, self.tmsi
        )
    }
}

/// Packs decimal digits into BCD, low nibble first, padding odd lengths
/// with `0xF` (TS 24.501 conventions).
#[must_use]
pub fn bcd_encode(digits: &str) -> Vec<u8> {
    let d: Vec<u8> = digits.bytes().map(|b| b - b'0').collect();
    let mut out = Vec::with_capacity(d.len().div_ceil(2));
    for pair in d.chunks(2) {
        let lo = pair[0];
        let hi = if pair.len() == 2 { pair[1] } else { 0xF };
        out.push(lo | (hi << 4));
    }
    out
}

/// Unpacks BCD into a digit string, stopping at a `0xF` filler nibble.
///
/// # Errors
///
/// Returns [`CryptoError::MalformedIdentifier`] when a nibble is neither a
/// decimal digit nor the filler.
pub fn bcd_decode(bcd: &[u8]) -> Result<String, CryptoError> {
    let mut out = String::with_capacity(bcd.len() * 2);
    for &byte in bcd {
        for nibble in [byte & 0xF, byte >> 4] {
            match nibble {
                0..=9 => out.push(char::from(b'0' + nibble)),
                0xF => return Ok(out),
                _ => {
                    return Err(CryptoError::MalformedIdentifier(format!(
                        "invalid BCD nibble {nibble:#x}"
                    )))
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_supi() -> Supi {
        Supi::new(Plmn::test_network(), "0000000001").unwrap()
    }

    #[test]
    fn plmn_validation() {
        assert!(Plmn::new("001", "01").is_ok());
        assert!(Plmn::new("001", "001").is_ok());
        assert!(Plmn::new("01", "01").is_err());
        assert!(Plmn::new("0012", "01").is_err());
        assert!(Plmn::new("001", "1").is_err());
        assert!(Plmn::new("00a", "01").is_err());
        assert_eq!(Plmn::test_network().to_string(), "00101");
    }

    #[test]
    fn supi_display_and_parse_round_trip() {
        let supi = test_supi();
        assert_eq!(supi.to_string(), "imsi-001010000000001");
        assert_eq!(Supi::parse("imsi-001010000000001").unwrap(), supi);
    }

    #[test]
    fn supi_parse_rejects_garbage() {
        assert!(Supi::parse("001010000000001").is_err());
        assert!(Supi::parse("imsi-1").is_err());
        assert!(Supi::parse("imsi-00101abc").is_err());
    }

    #[test]
    fn null_scheme_round_trip() {
        let supi = test_supi();
        let suci = supi.conceal_null();
        let hn = HomeNetworkKeyPair::from_private(1, [7; 32]);
        assert_eq!(suci.deconceal(&hn).unwrap(), supi);
    }

    #[test]
    fn null_scheme_exposes_msin() {
        // The property the paper's concealment protects against.
        let suci = test_supi().conceal_null();
        assert_eq!(bcd_decode(&suci.scheme_output).unwrap(), "0000000001");
    }

    #[test]
    fn profile_a_round_trip() {
        let supi = test_supi();
        let hn = HomeNetworkKeyPair::from_private(3, [9; 32]);
        let suci = supi.conceal_profile_a(3, hn.public(), &[0x55; 32]);
        assert_eq!(suci.scheme, ProtectionScheme::ProfileA);
        assert_eq!(suci.deconceal(&hn).unwrap(), supi);
    }

    #[test]
    fn profile_a_hides_msin() {
        let supi = test_supi();
        let hn = HomeNetworkKeyPair::from_private(3, [9; 32]);
        let suci = supi.conceal_profile_a(3, hn.public(), &[0x55; 32]);
        // The clear BCD must not appear in the scheme output.
        let clear = bcd_encode("0000000001");
        assert!(!suci
            .scheme_output
            .windows(clear.len())
            .any(|w| w == clear.as_slice()));
    }

    #[test]
    fn profile_a_wrong_key_id_rejected() {
        let supi = test_supi();
        let hn = HomeNetworkKeyPair::from_private(3, [9; 32]);
        let suci = supi.conceal_profile_a(4, hn.public(), &[0x55; 32]);
        assert_eq!(suci.deconceal(&hn), Err(CryptoError::UnknownKeyId(4)));
    }

    #[test]
    fn scheme_ids_round_trip() {
        for scheme in [ProtectionScheme::Null, ProtectionScheme::ProfileA] {
            assert_eq!(ProtectionScheme::from_id(scheme.id()).unwrap(), scheme);
        }
        assert!(ProtectionScheme::from_id(9).is_err());
    }

    #[test]
    fn bcd_round_trips_even_and_odd() {
        for digits in ["", "1", "12", "123", "0000000001", "9876543210"] {
            assert_eq!(bcd_decode(&bcd_encode(digits)).unwrap(), digits);
        }
    }

    #[test]
    fn bcd_rejects_invalid_nibble() {
        assert!(bcd_decode(&[0xAB]).is_err());
    }

    #[test]
    fn guti_masks_field_widths() {
        let guti = Guti::new(1, 0xffff, 0xff, 42);
        assert_eq!(guti.amf_set_id, 0x03ff);
        assert_eq!(guti.amf_pointer, 0x3f);
        assert!(guti.to_string().starts_with("5g-guti-"));
    }

    #[test]
    fn suci_display_mentions_scheme() {
        let suci = test_supi().conceal_null();
        let s = suci.to_string();
        assert!(s.starts_with("suci-0-001-01-0-0-0-"));
    }

    proptest::proptest! {
        #[test]
        fn bcd_round_trip_property(digits in "[0-9]{0,20}") {
            proptest::prop_assert_eq!(bcd_decode(&bcd_encode(&digits)).unwrap(), digits);
        }
    }
}
