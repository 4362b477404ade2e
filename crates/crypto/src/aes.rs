//! AES-128 block cipher (FIPS-197) with ECB block encryption and CTR mode.
//!
//! MILENAGE (TS 35.206) is defined directly over the AES-128 block
//! operation, the SUCI ECIES Profile A uses AES-128 in CTR mode, and the
//! HMEE simulator encrypts Enclave Page Cache pages and sim-TLS records with
//! CTR as well — so this module is the workhorse of the whole workspace.
//!
//! The implementation is the 64-bit fixsliced AES of Adomnicai & Peyrin
//! ("Fixslicing AES-like Ciphers", TCHES 2021, ePrint 2020/1123): four
//! blocks are processed per pass in bitsliced form, the S-box is the
//! Boyar–Peralta gate circuit, and `ShiftRows` is never executed inside
//! the rounds — each round's `MixColumns` is instead rewritten for the
//! column rotation it skipped. No table is indexed and no branch is taken
//! on key or state bytes, so the cipher runs in constant time; this
//! matters here, since the simulated enclave uses it to protect secrets
//! from a co-resident attacker. Only the forward cipher exists: CTR mode
//! never runs the inverse.
//!
//! # Example
//!
//! ```rust
//! use shield5g_crypto::aes::Aes128;
//!
//! // FIPS-197 appendix C.1.
//! let key: [u8; 16] = core::array::from_fn(|i| i as u8);
//! let mut block: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
//! Aes128::new(&key).encrypt_block(&mut block);
//! assert_eq!(shield5g_crypto::hex::encode(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
//! ```

/// Eight 64-bit slices holding four blocks: slice `i` carries bit `i`
/// (LSB first) of every byte, at bit position `16 * row + 4 * column +
/// block` — each row of the state fills one 16-bit lane.
type State = [u64; 8];

/// Round constants for the AES-128 key schedule (indexed by round
/// number, never by key material).
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// An expanded AES-128 key.
///
/// Construction performs the full key schedule once; the per-block
/// operations then only read the schedule.
#[derive(Clone)]
pub struct Aes128 {
    /// 11 round keys, bitsliced and replicated across the four block
    /// positions, each pre-rotated to meet the fixsliced state of its
    /// round.
    round_keys: [State; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key schedule material through Debug output.
        f.debug_struct("Aes128")
            .field("round_keys", &"<redacted>")
            .finish()
    }
}

impl Drop for Aes128 {
    fn drop(&mut self) {
        use crate::secret::Zeroize;
        self.round_keys.zeroize();
    }
}

impl Aes128 {
    /// Expands `key` into the 11-round AES-128 key schedule.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (word, chunk) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord + SubWord + Rcon.
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let mut round_keys = [[0u64; 8]; 11];
        let mut blocks = [0u8; 64];
        for first in (0..11).step_by(4) {
            // Bitslice up to four round keys at once, one per block
            // position, then spread each across all four positions.
            for (round, block) in (first..11).zip(blocks.chunks_exact_mut(16)) {
                let mut rk = [0u8; 16];
                for (c, word) in w[4 * round..4 * round + 4].iter().enumerate() {
                    rk[4 * c..4 * c + 4].copy_from_slice(&word.to_be_bytes());
                }
                // After `round` rounds without ShiftRows the state lags
                // the standard one by ShiftRows^round; rotate the key to
                // match.
                block.copy_from_slice(&shift_rows(&rk, (4 - round % 4) % 4));
            }
            let s = bitslice(&blocks);
            for (b, rk) in round_keys[first..].iter_mut().take(4).enumerate() {
                *rk = s.map(|x| ((x >> b) & 0x1111_1111_1111_1111) * 0xf);
            }
        }
        use crate::secret::Zeroize;
        w.zeroize();
        blocks.zeroize();
        Aes128 { round_keys }
    }

    /// Encrypts the four blocks in `blocks` in place, in one pass — the
    /// cost of a single [`Aes128::encrypt_block`].
    pub(crate) fn encrypt4(&self, blocks: &mut [u8; 64]) {
        let rk = &self.round_keys;
        let mut s = bitslice(blocks);
        add_round_key(&mut s, &rk[0]);
        for quad in [1, 5] {
            round::<1>(&mut s, &rk[quad]);
            round::<2>(&mut s, &rk[quad + 1]);
            round::<3>(&mut s, &rk[quad + 2]);
            round::<0>(&mut s, &rk[quad + 3]);
        }
        round::<1>(&mut s, &rk[9]);
        sub_bytes(&mut s);
        add_round_key(&mut s, &rk[10]);
        // Ten skipped ShiftRows are ShiftRows^2: apply it once here.
        for slice in &mut s {
            *slice = shift_rows_2(*slice);
        }
        *blocks = unbitslice(&s);
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let mut blocks = [0u8; 64];
        blocks[..16].copy_from_slice(block);
        self.encrypt4(&mut blocks);
        block.copy_from_slice(&blocks[..16]);
    }

    /// Encrypts a copy of `block` and returns it, leaving the input intact.
    #[must_use]
    pub fn encrypt_block_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Applies AES-CTR keystream to `data` in place (encrypt == decrypt).
    ///
    /// `icb` is the initial counter block; the full 128-bit counter is
    /// incremented big-endian per block, as required by SP 800-38A and the
    /// SUCI Profile A key data layout (TS 33.501 C.3.4). Keystream is made
    /// four blocks per pass.
    pub fn ctr_apply(&self, icb: &[u8; 16], data: &mut [u8]) {
        let mut counter = u128::from_be_bytes(*icb);
        let mut keystream = [0u8; 64];
        for chunk in data.chunks_mut(64) {
            for block in keystream.chunks_exact_mut(16) {
                block.copy_from_slice(&counter.to_be_bytes());
                counter = counter.wrapping_add(1);
            }
            self.encrypt4(&mut keystream);
            for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
                *d ^= k;
            }
        }
    }
}

/// One full round on the fixsliced state: `SubBytes`, the `MixColumns`
/// variant for a state lagging by ShiftRows^`LAG`, `AddRoundKey`.
#[inline(always)]
fn round<const LAG: u32>(s: &mut State, rk: &State) {
    sub_bytes(s);
    mix_columns::<LAG>(s);
    add_round_key(s, rk);
}

fn add_round_key(s: &mut State, rk: &State) {
    for (x, k) in s.iter_mut().zip(rk.iter()) {
        *x ^= k;
    }
}

/// Moves every byte to the position of its neighbour `rows` rows down
/// and `cols` columns right (both cyclic): bit `p` of the result is bit
/// `p + 16 * rows + 4 * cols` of `x`, with the column carry kept inside
/// the row's 16-bit lane.
#[inline(always)]
fn rotate(x: u64, rows: u32, cols: u32) -> u64 {
    if cols == 0 {
        return x.rotate_right(16 * rows);
    }
    // Destination columns whose source does not wrap past column 3.
    let no_wrap = ((1u64 << (4 * (4 - cols))) - 1) * 0x0001_0001_0001_0001;
    (x.rotate_right(16 * rows + 4 * cols) & no_wrap)
        | (x.rotate_right(16 * (rows - 1) + 4 * cols) & !no_wrap)
}

/// `MixColumns` on a state lagging the standard one by ShiftRows^`LAG`,
/// i.e. ShiftRows^-LAG ∘ MixColumns ∘ ShiftRows^LAG. Row `r + j` of the
/// column that meets row `r` sits `j * LAG` columns to the right.
#[inline(always)]
fn mix_columns<const LAG: u32>(s: &mut State) {
    // out = 2·(a ⊕ a₁) ⊕ a₁ ⊕ (a₂ ⊕ a₃), where aⱼ is the byte j rows down.
    let b = s.map(|a| rotate(a, 1, LAG));
    let c: State = std::array::from_fn(|i| s[i] ^ b[i]);
    // xtime(c): multiply by x modulo x^8 + x^4 + x^3 + x + 1.
    let xt = [
        c[7],
        c[0] ^ c[7],
        c[1],
        c[2] ^ c[7],
        c[3] ^ c[7],
        c[4],
        c[5],
        c[6],
    ];
    for i in 0..8 {
        s[i] = xt[i] ^ b[i] ^ rotate(c[i], 2, (2 * LAG) % 4);
    }
}

/// ShiftRows^2 on one slice: rows 1 and 3 swap their column pairs.
fn shift_rows_2(x: u64) -> u64 {
    (x & 0x0000_ffff_0000_ffff)
        | ((x & 0xff00_0000_ff00_0000) >> 8)
        | ((x & 0x00ff_0000_00ff_0000) << 8)
}

/// ShiftRows^`k` on one block: row `r` rotates left by `k * r` columns.
fn shift_rows(block: &[u8; 16], k: usize) -> [u8; 16] {
    std::array::from_fn(|i| {
        let (row, column) = (i % 4, i / 4);
        block[row + 4 * ((column + k * row) % 4)]
    })
}

/// The AES S-box on all 64 bytes at once: the 113-gate circuit of
/// Boyar & Peralta ("A depth-16 circuit for the AES S-box", 2011).
#[inline(always)]
fn sub_bytes(s: &mut State) {
    // The circuit numbers bits MSB first.
    let [u7, u6, u5, u4, u3, u2, u1, u0] = *s;

    // Top linear transform.
    let t1 = u0 ^ u3;
    let t2 = u0 ^ u5;
    let t3 = u0 ^ u6;
    let t4 = u3 ^ u5;
    let t5 = u4 ^ u6;
    let t6 = t1 ^ t5;
    let t7 = u1 ^ u2;
    let t8 = u7 ^ t6;
    let t9 = u7 ^ t7;
    let t10 = t6 ^ t7;
    let t11 = u1 ^ u5;
    let t12 = u2 ^ u5;
    let t13 = t3 ^ t4;
    let t14 = t6 ^ t11;
    let t15 = t5 ^ t11;
    let t16 = t5 ^ t12;
    let t17 = t9 ^ t16;
    let t18 = u3 ^ u7;
    let t19 = t7 ^ t18;
    let t20 = t1 ^ t19;
    let t21 = u6 ^ u7;
    let t22 = t7 ^ t21;
    let t23 = t2 ^ t22;
    let t24 = t2 ^ t10;
    let t25 = t20 ^ t17;
    let t26 = t3 ^ t16;
    let t27 = t1 ^ t12;

    // Shared non-linear middle (GF(2^4) inversion).
    let m1 = t13 & t6;
    let m2 = t23 & t8;
    let m3 = t14 ^ m1;
    let m4 = t19 & u7;
    let m5 = m4 ^ m1;
    let m6 = t3 & t16;
    let m7 = t22 & t9;
    let m8 = t26 ^ m6;
    let m9 = t20 & t17;
    let m10 = m9 ^ m6;
    let m11 = t1 & t15;
    let m12 = t4 & t27;
    let m13 = m12 ^ m11;
    let m14 = t2 & t10;
    let m15 = m14 ^ m11;
    let m16 = m3 ^ m2;
    let m17 = m5 ^ t24;
    let m18 = m8 ^ m7;
    let m19 = m10 ^ m15;
    let m20 = m16 ^ m13;
    let m21 = m17 ^ m15;
    let m22 = m18 ^ m13;
    let m23 = m19 ^ t25;
    let m24 = m22 ^ m23;
    let m25 = m22 & m20;
    let m26 = m21 ^ m25;
    let m27 = m20 ^ m21;
    let m28 = m23 ^ m25;
    let m29 = m28 & m27;
    let m30 = m26 & m24;
    let m31 = m20 & m23;
    let m32 = m27 & m31;
    let m33 = m27 ^ m25;
    let m34 = m21 & m22;
    let m35 = m24 & m34;
    let m36 = m24 ^ m25;
    let m37 = m21 ^ m29;
    let m38 = m32 ^ m33;
    let m39 = m23 ^ m30;
    let m40 = m35 ^ m36;
    let m41 = m38 ^ m40;
    let m42 = m37 ^ m39;
    let m43 = m37 ^ m38;
    let m44 = m39 ^ m40;
    let m45 = m42 ^ m41;
    let m46 = m44 & t6;
    let m47 = m40 & t8;
    let m48 = m39 & u7;
    let m49 = m43 & t16;
    let m50 = m38 & t9;
    let m51 = m37 & t17;
    let m52 = m42 & t15;
    let m53 = m45 & t27;
    let m54 = m41 & t10;
    let m55 = m44 & t13;
    let m56 = m40 & t23;
    let m57 = m39 & t19;
    let m58 = m43 & t3;
    let m59 = m38 & t22;
    let m60 = m37 & t20;
    let m61 = m42 & t1;
    let m62 = m45 & t4;
    let m63 = m41 & t2;

    // Bottom linear transform (the affine constant 0x63 is the NOTs).
    let l0 = m61 ^ m62;
    let l1 = m50 ^ m56;
    let l2 = m46 ^ m48;
    let l3 = m47 ^ m55;
    let l4 = m54 ^ m58;
    let l5 = m49 ^ m61;
    let l6 = m62 ^ l5;
    let l7 = m46 ^ l3;
    let l8 = m51 ^ m59;
    let l9 = m52 ^ m53;
    let l10 = m53 ^ l4;
    let l11 = m60 ^ l2;
    let l12 = m48 ^ m51;
    let l13 = m50 ^ l0;
    let l14 = m52 ^ m61;
    let l15 = m55 ^ l1;
    let l16 = m56 ^ l0;
    let l17 = m57 ^ l1;
    let l18 = m58 ^ l8;
    let l19 = m63 ^ l4;
    let l20 = l0 ^ l1;
    let l21 = l1 ^ l7;
    let l22 = l3 ^ l12;
    let l23 = l18 ^ l2;
    let l24 = l15 ^ l9;
    let l25 = l6 ^ l10;
    let l26 = l7 ^ l9;
    let l27 = l8 ^ l10;
    let l28 = l11 ^ l14;
    let l29 = l11 ^ l17;
    *s = [
        !(l6 ^ l23),
        !(l13 ^ l27),
        l25 ^ l29,
        l20 ^ l22,
        l6 ^ l21,
        !(l19 ^ l28),
        !(l16 ^ l26),
        l6 ^ l24,
    ];
}

/// `SubWord` for the key schedule, through the same gate circuit so that
/// no table is indexed by key bytes.
fn sub_word(word: u32) -> u32 {
    // Bit `bit` of byte `j` goes to bit `j` of slice `bit`.
    let mut s: State = std::array::from_fn(|bit| {
        u64::from((word >> bit) & 0x0101_0101).wrapping_mul(0x0102_0408) >> 24 & 0xf
    });
    sub_bytes(&mut s);
    s.iter().enumerate().fold(0, |out, (bit, &slice)| {
        let spread = (slice & 0xf).wrapping_mul(0x0020_4081) & 0x0101_0101;
        out | (spread as u32) << bit
    })
}

/// Exchanges the bits of `lo` selected by `mask << shift` with the bits of
/// `hi` selected by `mask`.
#[inline(always)]
fn swap_bits(lo: &mut u64, hi: &mut u64, shift: u32, mask: u64) {
    let t = ((*lo >> shift) ^ *hi) & mask;
    *hi ^= t;
    *lo ^= t << shift;
}

/// Transposes eight words of eight bytes each as 8×8 bit matrices:
/// afterwards word `k` holds bit `k` of every byte, at bit `8 * byte +
/// old word index`. Its own inverse.
fn transpose(t: &mut State) {
    let [mut t0, mut t1, mut t2, mut t3, mut t4, mut t5, mut t6, mut t7] = *t;
    let m = 0x5555_5555_5555_5555;
    swap_bits(&mut t0, &mut t1, 1, m);
    swap_bits(&mut t2, &mut t3, 1, m);
    swap_bits(&mut t4, &mut t5, 1, m);
    swap_bits(&mut t6, &mut t7, 1, m);
    let m = 0x3333_3333_3333_3333;
    swap_bits(&mut t0, &mut t2, 2, m);
    swap_bits(&mut t1, &mut t3, 2, m);
    swap_bits(&mut t4, &mut t6, 2, m);
    swap_bits(&mut t5, &mut t7, 2, m);
    let m = 0x0f0f_0f0f_0f0f_0f0f;
    swap_bits(&mut t0, &mut t4, 4, m);
    swap_bits(&mut t1, &mut t5, 4, m);
    swap_bits(&mut t2, &mut t6, 4, m);
    swap_bits(&mut t3, &mut t7, 4, m);
    *t = [t0, t1, t2, t3, t4, t5, t6, t7];
}

/// Interleaves the bytes of `x` with zero bytes: byte `j` moves to
/// byte `2 * j`.
fn spread_bytes(x: u32) -> u64 {
    let x = u64::from(x);
    let x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    (x | x << 8) & 0x00ff_00ff_00ff_00ff
}

/// Inverse of [`spread_bytes`] (odd bytes are dropped).
fn gather_bytes(x: u64) -> u32 {
    let x = x & 0x00ff_00ff_00ff_00ff;
    let x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    (x | x >> 16) as u32
}

/// Converts four 16-byte blocks into the bitsliced [`State`]. Word
/// `4 * h + b` interleaves columns `h` and `h + 2` of block `b` (byte
/// `2 * row + j` is row `row` of column `h + 2 * j`), so that the
/// transpose puts byte (row, column) of block `b` at bit
/// `16 * row + 4 * column + b`.
fn bitslice(blocks: &[u8; 64]) -> State {
    let mut t = [0u64; 8];
    for b in 0..4 {
        let half =
            |j: usize| u64::from_le_bytes(std::array::from_fn(|i| blocks[16 * b + 8 * j + i]));
        let (lo, hi) = (half(0), half(1));
        for h in 0..2 {
            let (l, r) = ((lo >> (32 * h)) as u32, (hi >> (32 * h)) as u32);
            t[4 * h + b] = spread_bytes(l) | spread_bytes(r) << 8;
        }
    }
    transpose(&mut t);
    t
}

/// Inverse of [`bitslice`].
fn unbitslice(s: &State) -> [u8; 64] {
    let mut t = *s;
    transpose(&mut t);
    let mut blocks = [0u8; 64];
    for (b, block) in blocks.chunks_exact_mut(16).enumerate() {
        let (mut lo, mut hi) = (0u64, 0u64);
        for h in 0..2 {
            lo |= u64::from(gather_bytes(t[4 * h + b])) << (32 * h);
            hi |= u64::from(gather_bytes(t[4 * h + b] >> 8)) << (32 * h);
        }
        block[..8].copy_from_slice(&lo.to_le_bytes());
        block[8..].copy_from_slice(&hi.to_le_bytes());
    }
    blocks
}

/// The byte-wise FIPS-197 cipher this module used to ship: the reference
/// the fixsliced implementation is tested against. It indexes its S-box
/// by secret data and branches in `gmul`, so it must never leave tests.
#[cfg(test)]
mod oracle {
    /// The AES S-box (FIPS-197 figure 7).
    pub const SBOX: [u8; 256] = [
        0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
        0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
        0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
        0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
        0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
        0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
        0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
        0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
        0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
        0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
        0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
        0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
        0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
        0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
        0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
        0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
        0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
        0x16,
    ];

    /// Multiplication in GF(2^8) with the AES reduction polynomial `x^8 + x^4 + x^3 + x + 1`.
    pub fn gmul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        for _ in 0..8 {
            if b & 1 != 0 {
                p ^= a;
            }
            let hi = a & 0x80;
            a <<= 1;
            if hi != 0 {
                a ^= 0x1b;
            }
            b >>= 1;
        }
        p
    }

    /// Byte-wise AES-128 with a byte-array key schedule.
    pub struct Aes128 {
        pub round_keys: [[u8; 16]; 11],
    }

    impl Aes128 {
        pub fn new(key: &[u8; 16]) -> Self {
            let mut w = [[0u8; 4]; 44];
            for (i, chunk) in key.chunks_exact(4).enumerate() {
                w[i].copy_from_slice(chunk);
            }
            for i in 4..44 {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp = [
                        SBOX[temp[1] as usize] ^ super::RCON[i / 4 - 1],
                        SBOX[temp[2] as usize],
                        SBOX[temp[3] as usize],
                        SBOX[temp[0] as usize],
                    ];
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; 11];
            for r in 0..11 {
                for c in 0..4 {
                    round_keys[r][c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
                }
            }
            Aes128 { round_keys }
        }

        fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
            for (s, k) in state.iter_mut().zip(rk.iter()) {
                *s ^= k;
            }
        }

        fn sub_bytes(state: &mut [u8; 16]) {
            for s in state.iter_mut() {
                *s = SBOX[*s as usize];
            }
        }

        /// Byte `i` of the block sits at row `i % 4`, column `i / 4`;
        /// `ShiftRows` rotates row `r` left by `r`.
        fn shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
                }
            }
        }

        fn mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col = [
                    state[4 * c],
                    state[4 * c + 1],
                    state[4 * c + 2],
                    state[4 * c + 3],
                ];
                state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
                state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
                state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
                state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
            }
        }

        pub fn encrypt_block(&self, block: &mut [u8; 16]) {
            Self::add_round_key(block, &self.round_keys[0]);
            for round in 1..10 {
                Self::sub_bytes(block);
                Self::shift_rows(block);
                Self::mix_columns(block);
                Self::add_round_key(block, &self.round_keys[round]);
            }
            Self::sub_bytes(block);
            Self::shift_rows(block);
            Self::add_round_key(block, &self.round_keys[10]);
        }

        pub fn ctr_apply(&self, icb: &[u8; 16], data: &mut [u8]) {
            let mut counter = *icb;
            for chunk in data.chunks_mut(16) {
                let mut keystream = counter;
                self.encrypt_block(&mut keystream);
                for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
                    *d ^= k;
                }
                for byte in counter.iter_mut().rev() {
                    *byte = byte.wrapping_add(1);
                    if *byte != 0 {
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn fips197_appendix_c1_vector() {
        let key = hex::decode_array::<16>("000102030405060708090a0b0c0d0e0f").unwrap();
        let mut block = hex::decode_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    #[test]
    fn nist_ecb_vector() {
        // SP 800-38A F.1.1 ECB-AES128.Encrypt, block 1.
        let key = hex::decode_array::<16>("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let mut block = hex::decode_array::<16>("6bc1bee22e409f96e93d7e117393172a").unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "3ad77bb40d7a3660a89ecaf32466ef97");
    }

    #[test]
    fn nist_ctr_vector() {
        // SP 800-38A F.5.1 CTR-AES128.Encrypt, all four blocks: one full
        // four-block pass, with a counter carry out of the last byte.
        let key = hex::decode_array::<16>("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let icb = hex::decode_array::<16>("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").unwrap();
        let mut data = hex::decode(concat!(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
        ))
        .unwrap();
        Aes128::new(&key).ctr_apply(&icb, &mut data);
        assert_eq!(
            hex::encode(&data),
            concat!(
                "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff",
                "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"
            )
        );
    }

    #[test]
    fn ctr_round_trip_partial_block() {
        let cipher = Aes128::new(&[7u8; 16]);
        let icb = [9u8; 16];
        let mut data = b"nineteen byte input".to_vec();
        let original = data.clone();
        cipher.ctr_apply(&icb, &mut data);
        assert_ne!(data, original);
        cipher.ctr_apply(&icb, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn ctr_counter_wraps_across_byte_boundary() {
        let cipher = Aes128::new(&[1u8; 16]);
        let mut icb = [0u8; 16];
        icb[15] = 0xff; // next increment carries into byte 14
        let mut data = vec![0u8; 48];
        cipher.ctr_apply(&icb, &mut data);
        // Block 2 keystream must equal encryption of counter 0x...0100.
        let mut ctr2 = [0u8; 16];
        ctr2[14] = 0x01;
        let expected = cipher.encrypt_block_copy(&ctr2);
        assert_eq!(&data[16..32], &expected[..]);
    }

    #[test]
    fn ctr_counter_wraps_at_2_pow_128() {
        let key = [0x3c; 16];
        let cipher = Aes128::new(&key);
        let icb = [0xff; 16];
        let mut data = vec![0u8; 2 * 64 + 5];
        cipher.ctr_apply(&icb, &mut data);
        // The second block's counter is all zeros.
        assert_eq!(&data[16..32], &cipher.encrypt_block_copy(&[0; 16])[..]);
        let mut expected = vec![0u8; data.len()];
        oracle::Aes128::new(&key).ctr_apply(&icb, &mut expected);
        assert_eq!(data, expected);
    }

    #[test]
    fn ctr_matches_oracle_at_every_short_length() {
        // Every residue mod 16 and mod 64, twice over, from ICBs whose
        // carries land inside and at the end of a four-block pass.
        let key = [0xa5; 16];
        let cipher = Aes128::new(&key);
        let reference = oracle::Aes128::new(&key);
        for low in [0xfc, 0xfd, 0xfe, 0xff, 0x00] {
            let mut icb = [0x5a; 16];
            icb[12..15].fill(0xff);
            icb[15] = low;
            let mut expected = vec![0u8; 130];
            reference.ctr_apply(&icb, &mut expected);
            for len in 0..=expected.len() {
                let mut data = vec![0u8; len];
                cipher.ctr_apply(&icb, &mut data);
                assert_eq!(data, expected[..len], "low byte {low:#x}, length {len}");
            }
        }
    }

    #[test]
    fn key_schedule_first_words_match_fips197_appendix_a() {
        let key = hex::decode_array::<16>("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let cipher = Aes128::new(&key);
        // w[4..8] from FIPS-197 Appendix A.1 forms round key 1.
        let standard = |round: usize| {
            let blocks = unbitslice(&cipher.round_keys[round]);
            assert!(blocks.chunks(16).all(|b| b == &blocks[..16]));
            let rk: [u8; 16] = std::array::from_fn(|i| blocks[i]);
            hex::encode(&shift_rows(&rk, round % 4))
        };
        assert_eq!(standard(1), "a0fafe1788542cb123a339392a6c7605");
        assert_eq!(standard(10), "d014f9a8c9ee2589e13f0cc8b6630ca6");
        for round in 0..11 {
            assert_eq!(
                standard(round),
                hex::encode(&oracle::Aes128::new(&key).round_keys[round])
            );
        }
    }

    #[test]
    fn bitsliced_sbox_matches_the_table() {
        for chunk in 0..4 {
            let mut blocks: [u8; 64] = std::array::from_fn(|i| (64 * chunk + i) as u8);
            let mut s = bitslice(&blocks);
            sub_bytes(&mut s);
            let out = unbitslice(&s);
            for b in &mut blocks {
                *b = oracle::SBOX[*b as usize];
            }
            assert_eq!(out, blocks);
        }
        for word in [0u32, 0x0102_0304, 0xffff_ffff, 0x53ca_0019] {
            let bytes = word.to_be_bytes().map(|b| oracle::SBOX[b as usize]);
            assert_eq!(sub_word(word), u32::from_be_bytes(bytes));
        }
    }

    #[test]
    fn bitslice_round_trips_and_places_bytes() {
        let blocks: [u8; 64] = std::array::from_fn(|i| (i as u8).wrapping_mul(37));
        let s = bitslice(&blocks);
        assert_eq!(unbitslice(&s), blocks);
        for (i, &byte) in blocks.iter().enumerate() {
            let (block, row, column) = (i / 16, i % 4, (i % 16) / 4);
            let pos = 16 * row + 4 * column + block;
            for (bit, slice) in s.iter().enumerate() {
                assert_eq!((slice >> pos) & 1, u64::from(byte >> bit) & 1);
            }
        }
    }

    #[test]
    fn debug_redacts_key_material() {
        let s = format!("{:?}", Aes128::new(&[0x42; 16]));
        assert!(s.contains("redacted"));
        assert!(!s.contains("42, 42"));
    }

    #[test]
    fn gmul_known_products() {
        // 0x57 * 0x83 = 0xc1 (FIPS-197 section 4.2 example).
        assert_eq!(oracle::gmul(0x57, 0x83), 0xc1);
        assert_eq!(oracle::gmul(0x57, 0x13), 0xfe);
        assert_eq!(oracle::gmul(1, 0xab), 0xab);
        assert_eq!(oracle::gmul(0, 0xff), 0);
    }

    proptest::proptest! {
        #[test]
        fn encrypt_block_matches_oracle(key in proptest::array::uniform16(0u8..), pt in proptest::array::uniform16(0u8..)) {
            let mut block = pt;
            Aes128::new(&key).encrypt_block(&mut block);
            let mut expected = pt;
            oracle::Aes128::new(&key).encrypt_block(&mut expected);
            proptest::prop_assert_eq!(block, expected);
        }

        #[test]
        fn ctr_apply_matches_oracle(
            key in proptest::array::uniform16(0u8..),
            icb in proptest::array::uniform16(0u8..),
            ff_bytes in 0usize..=16,
            below_wrap in 0u8..8,
            data in proptest::collection::vec(0u8.., 0..=4200),
        ) {
            // Low bytes 0xff…: the carry lands inside a pass, at a pass
            // boundary or (with 16 bytes) wraps the whole counter.
            let mut icb = icb;
            icb[16 - ff_bytes..].fill(0xff);
            if ff_bytes > 0 {
                icb[15] = 0xff - below_wrap;
            }
            let mut buf = data.clone();
            Aes128::new(&key).ctr_apply(&icb, &mut buf);
            let mut expected = data;
            oracle::Aes128::new(&key).ctr_apply(&icb, &mut expected);
            proptest::prop_assert_eq!(buf, expected);
        }

        #[test]
        fn ctr_is_an_involution(key in proptest::array::uniform16(0u8..), icb in proptest::array::uniform16(0u8..), data in proptest::collection::vec(0u8.., 0..200)) {
            let cipher = Aes128::new(&key);
            let mut buf = data.clone();
            cipher.ctr_apply(&icb, &mut buf);
            cipher.ctr_apply(&icb, &mut buf);
            proptest::prop_assert_eq!(buf, data);
        }
    }
}
