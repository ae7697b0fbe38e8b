//! Arbitrary-precision unsigned integers.
//!
//! Only the operations needed by RSA are implemented: comparison, addition,
//! subtraction, multiplication, division with remainder, modular
//! exponentiation, modular inverse, and Miller–Rabin primality testing.
//! `BigUint` limbs are 32-bit, stored little-endian, so all intermediate
//! products fit in `u64` without overflow.  Exponentiation modulo an odd
//! number — the hot path of RSA — runs on [`MontgomeryCtx`], which holds the
//! modulus as a fixed-width array of 64-bit limbs.

use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigUint {
    /// Little-endian 32-bit limbs with no trailing zero limbs (canonical form);
    /// zero is represented by an empty limb vector.
    limbs: Vec<u32>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a `u64`.
    pub fn from_u64(value: u64) -> Self {
        let mut out = BigUint {
            limbs: vec![value as u32, (value >> 32) as u32],
        };
        out.normalize();
        out
    }

    /// Construct from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 4 + 1);
        let mut iter = bytes.rchunks(4);
        for chunk in &mut iter {
            let mut limb = 0u32;
            for &byte in chunk {
                limb = (limb << 8) | byte as u32;
            }
            limbs.push(limb);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Big-endian byte representation without leading zero bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut bytes = Vec::with_capacity(self.limbs.len() * 4);
        for limb in self.limbs.iter().rev() {
            bytes.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = bytes.iter().position(|&b| b != 0).unwrap_or(bytes.len());
        bytes.split_off(first_nonzero)
    }

    /// Big-endian bytes left-padded with zeros to exactly `len` bytes.
    /// Panics if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let bytes = self.to_bytes_be();
        assert!(bytes.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - bytes.len()];
        out.extend_from_slice(&bytes);
        out
    }

    /// Lowercase hexadecimal representation without a `0x` prefix.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:08x}"));
            }
        }
        s
    }

    /// Parse a hexadecimal string (no prefix).
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let s = if s.len() % 2 == 1 {
            format!("0{s}")
        } else {
            s.to_string()
        };
        for i in (0..s.len()).step_by(2) {
            bytes.push(u8::from_str_radix(&s[i..i + 2], 16).ok()?);
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// True if this value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if this value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Test bit `i` (zero-based from the least significant bit).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        let offset = i % 32;
        self.limbs.get(limb).is_some_and(|l| (l >> offset) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let sum = limb as u64 + short.get(i).copied().unwrap_or(0) as u64 + carry;
            out.push(sum as u32);
            carry = sum >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        let mut result = BigUint { limbs: out };
        result.normalize();
        result
    }

    /// Subtraction; panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp(other) != Ordering::Less,
            "BigUint subtraction underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let diff =
                self.limbs[i] as i64 - other.limbs.get(i).copied().unwrap_or(0) as i64 - borrow;
            if diff < 0 {
                out.push((diff + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                out.push(diff as u32);
                borrow = 0;
            }
        }
        let mut result = BigUint { limbs: out };
        result.normalize();
        result
    }

    /// Multiplication (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u64 + a as u64 * b as u64 + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u64 + carry;
                out[k] = cur as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        let mut result = BigUint { limbs: out };
        result.normalize();
        result
    }

    /// Shift left by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 32;
        let bit_shift = bits % 32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u32;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (32 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut result = BigUint { limbs: out };
        result.normalize();
        result
    }

    /// Shift right by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 32;
        let bit_shift = bits % 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            for i in limb_shift..self.limbs.len() {
                let mut limb = self.limbs[i] >> bit_shift;
                if i + 1 < self.limbs.len() {
                    limb |= self.limbs[i + 1] << (32 - bit_shift);
                }
                out.push(limb);
            }
        }
        let mut result = BigUint { limbs: out };
        result.normalize();
        result
    }

    /// Comparison.
    #[allow(clippy::should_implement_trait)]
    pub fn cmp(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Division with remainder: schoolbook division over 32-bit digits
    /// (Knuth, TAOCP vol. 2, §4.3.1, Algorithm D).
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp(divisor) == Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        // Fast path for single-limb divisors.
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u64;
            let mut quotient = vec![0u32; self.limbs.len()];
            let mut rem = 0u64;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 32) | self.limbs[i] as u64;
                quotient[i] = (cur / d) as u32;
                rem = cur % d;
            }
            let mut q = BigUint { limbs: quotient };
            q.normalize();
            return (q, BigUint::from_u64(rem));
        }

        // Normalise so the divisor's top digit has its top bit set: then
        // each estimated quotient digit is at most two too large.
        const BASE: u64 = 1 << 32;
        let shift = divisor.limbs.last().expect("non-zero").leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0);
        let n = v.len();
        let (v_top, v_next) = (v[n - 1] as u64, v[n - 2] as u64);
        let mut quotient = vec![0u32; u.len() - n];
        for j in (0..quotient.len()).rev() {
            let top = (u[j + n] as u64) << 32 | u[j + n - 1] as u64;
            let (mut qhat, mut rhat) = (top / v_top, top % v_top);
            while qhat >= BASE || qhat * v_next > (rhat << 32 | u[j + n - 2] as u64) {
                qhat -= 1;
                rhat += v_top;
                if rhat >= BASE {
                    break;
                }
            }
            // u[j..=j+n] -= qhat · v
            let (mut borrow, mut carry) = (0i64, 0u64);
            for i in 0..n {
                let product = qhat * v[i] as u64 + carry;
                carry = product >> 32;
                let diff = u[i + j] as i64 - borrow - (product as u32) as i64;
                u[i + j] = diff as u32;
                borrow = (diff < 0) as i64;
            }
            let diff = u[j + n] as i64 - borrow - carry as i64;
            u[j + n] = diff as u32;
            if diff < 0 {
                // qhat was one too large: add one divisor back.
                qhat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let sum = u[i + j] as u64 + v[i] as u64 + carry;
                    u[i + j] = sum as u32;
                    carry = sum >> 32;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u32);
            }
            quotient[j] = qhat as u32;
        }
        u.truncate(n);
        let mut remainder = BigUint { limbs: u };
        remainder.normalize();
        let mut quotient = BigUint { limbs: quotient };
        quotient.normalize();
        (quotient, remainder.shr(shift))
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Modular multiplication.
    pub fn mulmod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// Modular exponentiation.
    ///
    /// Odd moduli of up to [`MAX_MODULUS_BITS`] (every RSA modulus and
    /// Miller–Rabin candidate) build a [`MontgomeryCtx`] and run its kernel;
    /// even and wider moduli take the square-and-multiply `mulmod` loop,
    /// which reduces with long division.
    pub fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        match MontgomeryCtx::new(modulus) {
            Some(ctx) => ctx.pow(self, exponent),
            None => self.modpow_naive(exponent, modulus),
        }
    }

    /// Bit-at-a-time square-and-multiply over `mulmod`: the path for even
    /// and over-wide moduli, and the oracle the tests hold the Montgomery
    /// kernel against (it shares no code with it).
    pub(crate) fn modpow_naive(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        if modulus.cmp(&BigUint::one()) == Ordering::Equal {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self.rem(modulus);
        for i in 0..exponent.bits() {
            if exponent.bit(i) {
                result = result.mulmod(&base, modulus);
            }
            base = base.mulmod(&base, modulus);
        }
        result
    }

    /// The value as `L` little-endian 64-bit limbs; it must fit.
    fn to_array<const L: usize>(&self) -> [u64; L] {
        debug_assert!(self.limbs.len() <= 2 * L, "value wider than {L} limbs");
        limbs_to_array(&self.limbs)
    }

    fn from_limbs64(limbs: &[u64]) -> BigUint {
        let mut out = BigUint {
            limbs: limbs
                .iter()
                .flat_map(|&limb| [limb as u32, (limb >> 32) as u32])
                .collect(),
        };
        out.normalize();
        out
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` modulo `modulus`, if it exists.
    ///
    /// Uses the extended Euclidean algorithm over signed cofactors tracked as
    /// (sign, magnitude) pairs.
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() {
            return None;
        }
        // Signed value as (negative?, magnitude).
        type Signed = (bool, BigUint);
        fn sub_signed(a: &Signed, b: &Signed) -> Signed {
            match (a.0, b.0) {
                (false, false) => {
                    if a.1.cmp(&b.1) != Ordering::Less {
                        (false, a.1.sub(&b.1))
                    } else {
                        (true, b.1.sub(&a.1))
                    }
                }
                (true, true) => {
                    if b.1.cmp(&a.1) != Ordering::Less {
                        (false, b.1.sub(&a.1))
                    } else {
                        (true, a.1.sub(&b.1))
                    }
                }
                (false, true) => (false, a.1.add(&b.1)),
                (true, false) => (true, a.1.add(&b.1)),
            }
        }
        fn mul_signed(a: &Signed, b: &BigUint) -> Signed {
            (a.0, a.1.mul(b))
        }

        let mut old_r = self.rem(modulus);
        let mut r = modulus.clone();
        // Invariant: old_r = old_s * self (mod modulus), r = s * self (mod modulus)
        let mut old_s: Signed = (false, BigUint::one());
        let mut s: Signed = (false, BigUint::zero());

        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            let qs = mul_signed(&s, &q);
            let new_s = sub_signed(&old_s, &qs);
            old_s = std::mem::replace(&mut s, new_s);
        }

        if old_r.cmp(&BigUint::one()) != Ordering::Equal {
            return None; // not coprime
        }
        // Bring old_s into [0, modulus).
        let magnitude = old_s.1.rem(modulus);
        if old_s.0 && !magnitude.is_zero() {
            Some(modulus.sub(&magnitude))
        } else {
            Some(magnitude)
        }
    }

    /// Generate a uniformly random value with exactly `bits` bits (top bit set).
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0);
        let limbs_needed = bits.div_ceil(32);
        let mut limbs: Vec<u32> = (0..limbs_needed).map(|_| rng.gen()).collect();
        // Mask off excess bits, then force the top bit.
        let top_bits = bits % 32;
        if top_bits != 0 {
            let mask = (1u64 << top_bits) - 1;
            let last = limbs.last_mut().expect("at least one limb");
            *last &= mask as u32;
            *last |= 1 << (top_bits - 1);
        } else {
            let last = limbs.last_mut().expect("at least one limb");
            *last |= 1 << 31;
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Generate a uniformly random value in `[0, bound)` via rejection sampling.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero());
        let bits = bound.bits();
        loop {
            let limbs_needed = bits.div_ceil(32);
            let mut limbs: Vec<u32> = (0..limbs_needed).map(|_| rng.gen()).collect();
            let top_bits = bits % 32;
            if top_bits != 0 {
                let mask = (1u64 << top_bits) - 1;
                if let Some(last) = limbs.last_mut() {
                    *last &= mask as u32;
                }
            }
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if candidate.cmp(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    pub fn is_probably_prime<R: Rng + ?Sized>(&self, rng: &mut R, rounds: usize) -> bool {
        let two = BigUint::from_u64(2);
        let three = BigUint::from_u64(3);
        if self.cmp(&two) == Ordering::Less {
            return false;
        }
        if self.cmp(&two) == Ordering::Equal || self.cmp(&three) == Ordering::Equal {
            return true;
        }
        if self.is_even() {
            return false;
        }

        // Quick trial division by small primes.
        const SMALL_PRIMES: [u64; 30] = [
            3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
            89, 97, 101, 103, 107, 109, 113, 127,
        ];
        for p in SMALL_PRIMES {
            let bp = BigUint::from_u64(p);
            if self.cmp(&bp) == Ordering::Equal {
                return true;
            }
            if self.rem(&bp).is_zero() {
                return false;
            }
        }

        // Write self - 1 = d * 2^s with d odd.
        let n_minus_1 = self.sub(&BigUint::one());
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }

        // A candidate wider than the kernel takes the long-division loop.
        let ctx = MontgomeryCtx::new(self);
        let pow = |x: &BigUint, exponent: &BigUint| match &ctx {
            Some(ctx) => ctx.pow(x, exponent),
            None => x.modpow_naive(exponent, self),
        };
        'witness: for _ in 0..rounds {
            let a = BigUint::random_below(rng, &self.sub(&three)).add(&two);
            let mut x = pow(&a, &d);
            if x.cmp(&BigUint::one()) == Ordering::Equal || x.cmp(&n_minus_1) == Ordering::Equal {
                continue 'witness;
            }
            for _ in 0..s - 1 {
                x = pow(&x, &two);
                if x.cmp(&n_minus_1) == Ordering::Equal {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generate a random probable prime with exactly `bits` bits.
    pub fn random_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize, mr_rounds: usize) -> BigUint {
        loop {
            let mut candidate = BigUint::random_bits(rng, bits);
            // Force odd.
            if candidate.is_even() {
                candidate = candidate.add(&BigUint::one());
            }
            if candidate.is_probably_prime(rng, mr_rounds) {
                return candidate;
            }
        }
    }
}

/// Width of an exponent window in [`MontgomeryCtx::pow`] for exponents
/// longer than 64 bits.  It divides the 32-bit limb, so no window straddles
/// two limbs of the exponent.
const WINDOW_BITS: usize = 4;

/// Widest modulus a [`MontgomeryCtx`] takes: 64 limbs of 64 bits.
pub const MAX_MODULUS_BITS: usize = 4096;

/// Everything an exponentiation modulo one odd `n ≥ 3` needs that depends on
/// `n` alone, computed once per key.  This is the crate's only odd-modulus
/// kernel: [`BigUint::modpow`], Miller–Rabin and RSA all run on it.
///
/// The modulus runs at the narrowest of seven fixed widths — 1, 2, 4, 8, 16,
/// 32 or 64 limbs of 64 bits — that holds it, with `R = 2^(64·width)`:
/// Montgomery arithmetic only needs `R > n`, so a 3-limb modulus padded to
/// four is invisible outside the context.  A modulus wider than
/// [`MAX_MODULUS_BITS`] fits no width and gets no context.  Operands are
/// arrays on the stack; products are CIOS and squares SOS (each cross
/// product once, doubled, then the diagonal and the reduction), both over
/// `u64` limbs with `u128` accumulators (Koç, Acar and Kaliski, IEEE Micro
/// 1996).
///
/// An exponent of at most 64 bits — RSA's public `e` — is walked bit by
/// bit and multiplies only on set bits.  A longer one — a private CRT
/// exponent, a Miller–Rabin `d` — takes a fixed 4-bit window that
/// multiplies on every window, so which products run depends on its length
/// and not on its bits.  Table lookups are still indexed by those bits and
/// the final subtraction of each product is data-dependent: this is not
/// constant-time code.
#[derive(Clone)]
pub struct MontgomeryCtx {
    width: Width,
}

/// One [`Kernel`] per instantiated width; boxed so a key holding a context
/// is the same size whatever its modulus.
#[derive(Clone)]
enum Width {
    L1(Box<Kernel<1>>),
    L2(Box<Kernel<2>>),
    L4(Box<Kernel<4>>),
    L8(Box<Kernel<8>>),
    L16(Box<Kernel<16>>),
    L32(Box<Kernel<32>>),
    L64(Box<Kernel<64>>),
}

/// Run `$body` with `$k` bound to the context's kernel, whatever its width.
macro_rules! with_kernel {
    ($width:expr, $k:ident => $body:expr) => {
        match $width {
            Width::L1($k) => $body,
            Width::L2($k) => $body,
            Width::L4($k) => $body,
            Width::L8($k) => $body,
            Width::L16($k) => $body,
            Width::L32($k) => $body,
            Width::L64($k) => $body,
        }
    };
}

impl fmt::Debug for MontgomeryCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let limbs = with_kernel!(&self.width, k => k.n.len());
        write!(f, "MontgomeryCtx({limbs} limbs)")
    }
}

impl MontgomeryCtx {
    /// The context of `modulus`, or `None` when it is even, below three or
    /// wider than [`MAX_MODULUS_BITS`].
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.bits() < 2 {
            return None;
        }
        let width = match modulus.bits().div_ceil(64) {
            1 => Width::L1(Box::new(Kernel::new(modulus))),
            2 => Width::L2(Box::new(Kernel::new(modulus))),
            3..=4 => Width::L4(Box::new(Kernel::new(modulus))),
            5..=8 => Width::L8(Box::new(Kernel::new(modulus))),
            9..=16 => Width::L16(Box::new(Kernel::new(modulus))),
            17..=32 => Width::L32(Box::new(Kernel::new(modulus))),
            33..=64 => Width::L64(Box::new(Kernel::new(modulus))),
            _ => return None,
        };
        Some(MontgomeryCtx { width })
    }

    /// `base^exponent mod n`, for a base of any width.
    pub fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        with_kernel!(&self.width, k => k.pow(base, exponent))
    }

    /// `a · b mod n`, for operands of any width.
    pub fn mulmod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        with_kernel!(&self.width, k => k.mulmod(a, b))
    }

    /// `a · a · R⁻¹ mod n` by the squaring and by the product, for an `a`
    /// below `n`: the unit test of the squaring routine.
    #[cfg(test)]
    fn square_and_product(&self, a: &BigUint) -> (BigUint, BigUint) {
        with_kernel!(&self.width, k => {
            let a = a.to_array();
            let (sqr, mul) = (k.sqr(&a), k.mul(&a, &a));
            (BigUint::from_limbs64(&sqr), BigUint::from_limbs64(&mul))
        })
    }
}

/// `acc + a · b + carry` as (low, high) limbs; it cannot overflow 128 bits.
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let wide = acc as u128 + a as u128 * b as u128 + carry as u128;
    (wide as u64, (wide >> 64) as u64)
}

/// [`MontgomeryCtx`] at `L` limbs: the modulus zero-padded to `L` limbs,
/// the Montgomery constant and the two powers of `R = 2^(64·L)` that take
/// values into and out of the domain.  Every value in the domain is below
/// `n`.
#[derive(Clone)]
struct Kernel<const L: usize> {
    n: [u64; L],
    /// `-n⁻¹ mod 2^64`.
    n0inv: u64,
    /// `R mod n`: the Montgomery form of one.
    r1: [u64; L],
    /// `R² mod n`: a Montgomery product with it enters the domain.
    r2: [u64; L],
}

impl<const L: usize> Kernel<L> {
    /// No long division: `R mod n` is `2^(bits−1)` doubled up to `R`, and
    /// `R² mod n` is the Montgomery form of two raised to the `64·L`-th
    /// power inside the domain (`log₂(64·L)` squarings, as `64·L` is a
    /// power of two).
    fn new(modulus: &BigUint) -> Self {
        let n: [u64; L] = modulus.to_array();
        // 2-adic Newton iteration: an odd n0 is its own inverse to 3 bits,
        // and each step doubles the number of correct bits.
        let mut inv = n[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let mut kernel = Kernel {
            n,
            n0inv: inv.wrapping_neg(),
            r1: [0; L],
            r2: [0; L],
        };

        let top_bit = modulus.bits() - 1;
        let mut r1 = [0; L];
        r1[top_bit / 64] = 1 << (top_bit % 64);
        for _ in top_bit..64 * L {
            kernel.double(&mut r1);
        }
        let mut acc = r1;
        kernel.double(&mut acc);
        for _ in 0..(64 * L).ilog2() {
            acc = kernel.sqr(&acc);
        }
        kernel.r1 = r1;
        kernel.r2 = acc;
        kernel
    }

    fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if exponent.is_zero() {
            return BigUint::one();
        }
        let base = self.enter(base);
        let bits = exponent.bits();
        if bits <= 64 {
            let [e] = exponent.to_array();
            let mut acc = base;
            for bit in (0..bits - 1).rev() {
                acc = self.sqr(&acc);
                if (e >> bit) & 1 == 1 {
                    acc = self.mul(&acc, &base);
                }
            }
            return self.leave(&acc);
        }

        // table[i] = baseⁱ in Montgomery form.
        let mut table = [[0; L]; 1 << WINDOW_BITS];
        table[0] = self.r1;
        table[1] = base;
        for i in 2..1 << WINDOW_BITS {
            table[i] = if i % 2 == 0 {
                self.sqr(&table[i / 2])
            } else {
                self.mul(&table[i - 1], &base)
            };
        }
        let entry = |window: usize| {
            let per_limb = 32 / WINDOW_BITS;
            let limb = exponent.limbs.get(window / per_limb).copied().unwrap_or(0);
            let digit =
                (limb >> (WINDOW_BITS * (window % per_limb))) as usize & ((1 << WINDOW_BITS) - 1);
            &table[digit]
        };

        let windows = bits.div_ceil(WINDOW_BITS);
        let mut acc = *entry(windows - 1);
        for window in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                acc = self.sqr(&acc);
            }
            acc = self.mul(&acc, entry(window));
        }
        self.leave(&acc)
    }

    fn mulmod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (a, b) = (self.enter(a), self.enter(b));
        self.leave(&self.mul(&a, &b))
    }

    /// `x · R mod n` for an `x` of any width: Horner's rule over `L`-limb
    /// chunks from the top, where "shift by one chunk" and "enter the
    /// domain" are both a Montgomery product with `R² mod n`.  An `x` of up
    /// to `L` limbs — a signature, a Miller–Rabin base — costs one product;
    /// a message reduced modulo one RSA prime costs three.
    fn enter(&self, x: &BigUint) -> [u64; L] {
        let mut acc = [0; L];
        for (i, part) in x.limbs.chunks(2 * L).rev().enumerate() {
            let chunk = self.mul(&limbs_to_array(part), &self.r2);
            if i == 0 {
                acc = chunk;
                continue;
            }
            let shifted = self.mul(&acc, &self.r2);
            let mut carry = false;
            for (a, (&b, &c)) in acc.iter_mut().zip(shifted.iter().zip(&chunk)) {
                let (sum, c1) = b.overflowing_add(c);
                let (sum, c2) = sum.overflowing_add(carry as u64);
                *a = sum;
                carry = c1 | c2;
            }
            acc = self.reduce_once(acc, carry);
        }
        acc
    }

    /// Leave the Montgomery domain: the reduction of `x` alone.
    fn leave(&self, x: &[u64; L]) -> BigUint {
        BigUint::from_limbs64(&self.redc([*x, [0; L]]))
    }

    /// CIOS Montgomery product `a · b · R⁻¹ mod n`, for `a` below `R` and
    /// `b` below `n`, which keeps every partial sum below `2n`.  Each step
    /// adds `aᵢ · b` and `m · n` in one pass, `m` chosen so the sum's low
    /// limb is zero, and shifts it down a limb.
    #[inline]
    fn mul(&self, a: &[u64; L], b: &[u64; L]) -> [u64; L] {
        let n = &self.n;
        let mut t = [0u64; L];
        // Limb `L` of the running sum.
        let mut top = 0u64;
        for &ai in a {
            let (t0, mut carry_ab) = mac(t[0], ai, b[0], 0);
            let m = t0.wrapping_mul(self.n0inv);
            let (_, mut carry_mn) = mac(t0, m, n[0], 0);
            for j in 1..L {
                let sum;
                (sum, carry_ab) = mac(t[j], ai, b[j], carry_ab);
                (t[j - 1], carry_mn) = mac(sum, m, n[j], carry_mn);
            }
            let sum = top as u128 + carry_ab as u128 + carry_mn as u128;
            t[L - 1] = sum as u64;
            top = (sum >> 64) as u64;
        }
        self.reduce_once(t, top != 0)
    }

    /// SOS Montgomery square `a · a · R⁻¹ mod n`, for `a` below `n`: each
    /// cross product `aᵢ·aⱼ (i < j)` once, the sum doubled, the diagonal
    /// `aᵢ²` added, then the reduction.
    #[inline]
    fn sqr(&self, a: &[u64; L]) -> [u64; L] {
        let mut wide = [[0u64; L]; 2];
        let t = wide.as_flattened_mut();
        for i in 0..L {
            let mut carry = 0;
            for j in i + 1..L {
                (t[i + j], carry) = mac(t[i + j], a[i], a[j], carry);
            }
            t[i + L] = carry;
        }
        // t = 2t + Σ aᵢ² · 2^(128·i); the cross sum is below a²/2, so the
        // doubling carries nothing out of the top limb.
        let (mut shifted_out, mut carry) = (0, 0);
        for i in 0..L {
            let (lo, hi) = (t[2 * i], t[2 * i + 1]);
            let square = a[i] as u128 * a[i] as u128 + carry as u128;
            let low = ((lo << 1) | shifted_out) as u128 + (square as u64) as u128;
            let high = ((hi << 1) | (lo >> 63)) as u128 + (square >> 64) + (low >> 64);
            shifted_out = hi >> 63;
            (t[2 * i], t[2 * i + 1], carry) = (low as u64, high as u64, (high >> 64) as u64);
        }
        self.redc(wide)
    }

    /// Montgomery reduction `t · R⁻¹ mod n` of a `2L`-limb `t` below `n·R`.
    #[inline]
    fn redc(&self, mut wide: [[u64; L]; 2]) -> [u64; L] {
        let t = wide.as_flattened_mut();
        let mut top = false;
        for i in 0..L {
            let m = t[i].wrapping_mul(self.n0inv);
            let mut carry = 0;
            for j in 0..L {
                (t[i + j], carry) = mac(t[i + j], m, self.n[j], carry);
            }
            let (sum, c1) = t[i + L].overflowing_add(carry);
            let (sum, c2) = sum.overflowing_add(top as u64);
            t[i + L] = sum;
            top = c1 | c2;
        }
        self.reduce_once(wide[1], top)
    }

    /// `x = 2x mod n` for an `x` below `n`.
    fn double(&self, x: &mut [u64; L]) {
        let mut carry = 0;
        for limb in x.iter_mut() {
            let shifted = (*limb << 1) | carry;
            carry = *limb >> 63;
            *limb = shifted;
        }
        *x = self.reduce_once(*x, carry != 0);
    }

    /// `x mod n` for an `x` below `2n` whose bit `64·L` is `overflow`.
    #[inline]
    fn reduce_once(&self, x: [u64; L], overflow: bool) -> [u64; L] {
        let mut diff = [0; L];
        let mut borrow = false;
        for (d, (&a, &b)) in diff.iter_mut().zip(x.iter().zip(&self.n)) {
            let (v, b1) = a.overflowing_sub(b);
            let (v, b2) = v.overflowing_sub(borrow as u64);
            *d = v;
            borrow = b1 | b2;
        }
        if overflow || !borrow {
            diff
        } else {
            x
        }
    }
}

/// Little-endian 32-bit limbs (at most `2L` of them) as `L` 64-bit limbs.
fn limbs_to_array<const L: usize>(limbs: &[u32]) -> [u64; L] {
    let mut out = [0; L];
    for (i, &limb) in limbs.iter().enumerate() {
        out[i / 2] |= (limb as u64) << (32 * (i % 2));
    }
    out
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = big(0xFFFF_FFFF_FFFF_FFFF);
        let b = big(12345);
        let sum = a.add(&b);
        assert_eq!(sum.sub(&b).cmp(&a), Ordering::Equal);
        assert_eq!(sum.sub(&a).cmp(&b), Ordering::Equal);
    }

    #[test]
    fn mul_small_values() {
        assert_eq!(
            big(1000).mul(&big(1000)).cmp(&big(1_000_000)),
            Ordering::Equal
        );
        assert_eq!(big(0).mul(&big(77)).cmp(&BigUint::zero()), Ordering::Equal);
        let a = big(0xFFFF_FFFF);
        assert_eq!(a.mul(&a).cmp(&big(0xFFFF_FFFE_0000_0001)), Ordering::Equal);
    }

    #[test]
    fn div_rem_matches_u64() {
        let cases = [
            (100u64, 7u64),
            (0, 5),
            (12345678901234567, 9876543),
            (u64::MAX, 3),
        ];
        for (a, b) in cases {
            let (q, r) = big(a).div_rem(&big(b));
            assert_eq!(q.cmp(&big(a / b)), Ordering::Equal, "{a}/{b}");
            assert_eq!(r.cmp(&big(a % b)), Ordering::Equal, "{a}%{b}");
        }
    }

    #[test]
    fn shifts() {
        let a = big(0b1011);
        assert_eq!(a.shl(3).cmp(&big(0b1011000)), Ordering::Equal);
        assert_eq!(a.shr(2).cmp(&big(0b10)), Ordering::Equal);
        assert_eq!(a.shl(40).shr(40).cmp(&a), Ordering::Equal);
        assert!(a.shr(100).is_zero());
    }

    #[test]
    fn bytes_roundtrip() {
        let a = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(
            a.to_bytes_be(),
            vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]
        );
        assert_eq!(a.to_bytes_be_padded(12)[..3], [0, 0, 0]);
        assert!(BigUint::from_bytes_be(&[0, 0, 0]).is_zero());
    }

    #[test]
    fn hex_roundtrip() {
        let a = BigUint::from_hex("deadbeef0123456789abcdef").unwrap();
        assert_eq!(a.to_hex(), "deadbeef0123456789abcdef");
        assert_eq!(BigUint::zero().to_hex(), "0");
    }

    #[test]
    fn modpow_small() {
        // 4^13 mod 497 = 445
        assert_eq!(
            big(4).modpow(&big(13), &big(497)).cmp(&big(445)),
            Ordering::Equal
        );
        // Fermat: a^(p-1) = 1 mod p for prime p
        let p = big(1_000_000_007);
        assert_eq!(
            big(123456)
                .modpow(&p.sub(&BigUint::one()), &p)
                .cmp(&BigUint::one()),
            Ordering::Equal
        );
    }

    fn random_odd(rng: &mut StdRng, bits: usize) -> BigUint {
        let n = BigUint::random_bits(rng, bits);
        if n.is_even() {
            n.add(&BigUint::one())
        } else {
            n
        }
    }

    /// The Montgomery kernel against the long-division square-and-multiply
    /// loop, at limb-boundary widths, with bases below, at and above the
    /// modulus (up to past double width) and short and full-length exponents.
    #[test]
    fn montgomery_pow_matches_naive_oracle() {
        let mut rng = StdRng::seed_from_u64(0x6d6f_6e74);
        for bits in [63, 64, 65, 127, 128, 129, 255, 256, 511, 512, 1024] {
            let rounds = if bits > 512 { 1 } else { 3 };
            for _ in 0..rounds {
                let n = random_odd(&mut rng, bits);
                let ctx = MontgomeryCtx::new(&n).expect("odd modulus");
                let bases = [
                    BigUint::zero(),
                    BigUint::one(),
                    BigUint::random_below(&mut rng, &n),
                    n.sub(&BigUint::one()),
                    n.clone(),
                    n.add(&BigUint::one()),
                    BigUint::random_bits(&mut rng, bits + 1),
                    BigUint::random_bits(&mut rng, 2 * bits),
                    BigUint::random_bits(&mut rng, 2 * bits + 70),
                ];
                let exponents = [
                    BigUint::zero(),
                    BigUint::one(),
                    big(65_537),
                    BigUint::random_bits(&mut rng, bits),
                ];
                for base in &bases {
                    for exponent in &exponents {
                        assert_eq!(
                            ctx.pow(base, exponent),
                            base.modpow_naive(exponent, &n),
                            "{base}^{exponent} mod {n}"
                        );
                    }
                    assert_eq!(ctx.mulmod(base, &bases[2]), base.mulmod(&bases[2], &n));
                }
            }
        }
    }

    /// Moduli at each instantiated width, full and one bit past the width
    /// below, and at the padded sizes between them.
    fn moduli_at_every_width(rng: &mut StdRng) -> Vec<BigUint> {
        let mut moduli = Vec::new();
        for limbs in [1usize, 2, 3, 4, 5, 8, 9, 16, 32, 64] {
            let low = if limbs == 1 { 2 } else { 64 * (limbs - 1) + 1 };
            for bits in [low, 64 * limbs] {
                moduli.push(random_odd(rng, bits));
            }
        }
        moduli
    }

    /// The squaring routine equals the product of an operand with itself at
    /// every width, on operands just below `n` (where every limb is near its
    /// maximum and the final subtraction is most often taken), and each
    /// modulus runs at the narrowest width that holds it.
    #[test]
    fn montgomery_square_equals_product_with_itself_at_every_width() {
        let mut rng = StdRng::seed_from_u64(0x5371);
        for n in moduli_at_every_width(&mut rng) {
            let ctx = MontgomeryCtx::new(&n).expect("odd modulus");
            let limbs = n.bits().div_ceil(64).next_power_of_two();
            assert_eq!(format!("{ctx:?}"), format!("MontgomeryCtx({limbs} limbs)"));
            let below = |k: u64| n.sub(&big(k).rem(&n));
            let operands = [
                below(1),
                below(2),
                below(0xffff_ffff),
                BigUint::random_below(&mut rng, &n),
                BigUint::zero(),
                BigUint::one(),
            ];
            for a in &operands {
                let (square, product) = ctx.square_and_product(a);
                assert_eq!(square, product, "{a}² mod {n}");
            }
        }
    }

    proptest::proptest! {
        /// The context at every instantiated width (1–64 limbs) and at the
        /// padded sizes between them (3, 5 and 9 limbs) against the
        /// long-division loop, for exponents on both sides of the 64-bit
        /// switch from the bit walk to the fixed window, and of full length.
        #[test]
        fn montgomery_ctx_matches_modpow_naive_at_every_width(width in 0usize..10,
                                                               exponent_class in 0usize..7,
                                                               seed in proptest::prelude::any::<u64>()) {
            use rand::Rng;
            const LIMBS: [usize; 10] = [1, 2, 3, 4, 5, 8, 9, 16, 32, 64];
            let mut rng = StdRng::seed_from_u64(seed);
            let limbs = LIMBS[width];
            let bits = rng.gen_range(64 * (limbs - 1)..64 * limbs).max(1) + 1;
            let n = random_odd(&mut rng, bits);
            let exponent_bits = [0, 1, 2, 17, 64, 65, bits][exponent_class];
            let exponent = match exponent_bits {
                0 => BigUint::zero(),
                k => BigUint::random_bits(&mut rng, k),
            };
            let base_bits = rng.gen_range(1..2 * bits + 70);
            let base = BigUint::random_bits(&mut rng, base_bits);
            let ctx = MontgomeryCtx::new(&n).expect("odd, at least 2 bits, at most 4096");
            proptest::prop_assert_eq!(ctx.pow(&base, &exponent), base.modpow_naive(&exponent, &n));
            let other = BigUint::random_below(&mut rng, &n);
            proptest::prop_assert_eq!(ctx.mulmod(&base, &other), base.mulmod(&other, &n));
        }
    }

    /// The widest modulus the kernel takes is 4096 bits; `modpow` still
    /// answers past it, on the long-division loop.
    #[test]
    fn montgomery_ctx_refuses_moduli_wider_than_4096_bits() {
        let mut rng = StdRng::seed_from_u64(0x4097);
        let widest = random_odd(&mut rng, MAX_MODULUS_BITS);
        assert!(MontgomeryCtx::new(&widest).is_some());
        let wider = random_odd(&mut rng, MAX_MODULUS_BITS + 1);
        assert!(MontgomeryCtx::new(&wider).is_none());
        let base = BigUint::random_below(&mut rng, &wider);
        assert_eq!(
            base.modpow(&big(3), &wider),
            base.mul(&base).mul(&base).rem(&wider)
        );
    }

    /// Long division against reconstruction, including the digit estimate
    /// that is one too large and must be added back.
    #[test]
    fn div_rem_reconstructs_the_dividend() {
        let from = |limbs: &[u32]| {
            let mut x = BigUint {
                limbs: limbs.to_vec(),
            };
            x.normalize();
            x
        };
        let add_back = (
            from(&[0, 0, 0x8000_0000, 0x7fff_ffff]),
            from(&[1, 0, 0x8000_0000]),
        );
        let mut rng = StdRng::seed_from_u64(0xd1f);
        let mut cases = vec![add_back];
        for (a_bits, d_bits) in [
            (64, 33),
            (128, 64),
            (1024, 512),
            (4096, 2048),
            (8192, 4096),
            (97, 96),
        ] {
            cases.push((
                BigUint::random_bits(&mut rng, a_bits),
                BigUint::random_bits(&mut rng, d_bits),
            ));
        }
        for (a, d) in &cases {
            let (q, r) = a.div_rem(d);
            assert_eq!(q.mul(d).add(&r), *a, "{a} / {d}");
            assert_eq!(r.cmp(d), Ordering::Less, "{a} % {d}");
        }
    }

    #[test]
    fn montgomery_ctx_refuses_even_and_tiny_moduli() {
        for n in [0u64, 1, 2, 4, 1 << 40] {
            assert!(MontgomeryCtx::new(&big(n)).is_none(), "{n}");
        }
        let three = MontgomeryCtx::new(&big(3)).expect("three is odd");
        assert_eq!(three.pow(&big(5), &big(3)), big(125 % 3));
        // modpow still answers for the moduli the context refuses.
        assert_eq!(big(7).modpow(&big(5), &big(10)), big(16_807 % 10));
        assert!(big(7).modpow(&big(5), &BigUint::one()).is_zero());
    }

    #[test]
    fn gcd_and_modinv() {
        assert_eq!(big(54).gcd(&big(24)).cmp(&big(6)), Ordering::Equal);
        let inv = big(3).modinv(&big(11)).unwrap();
        assert_eq!(inv.cmp(&big(4)), Ordering::Equal);
        assert!(big(6).modinv(&big(9)).is_none());
        // e * d = 1 mod phi for RSA-style values
        let e = big(65537);
        let phi = big(3120);
        if let Some(d) = e.modinv(&phi) {
            assert_eq!(e.mulmod(&d, &phi).cmp(&BigUint::one()), Ordering::Equal);
        }
    }

    #[test]
    fn primality_known_values() {
        let mut rng = StdRng::seed_from_u64(42);
        for p in [2u64, 3, 5, 7, 104729, 1_000_000_007] {
            assert!(
                big(p).is_probably_prime(&mut rng, 16),
                "{p} should be prime"
            );
        }
        for c in [1u64, 4, 100, 104730, 1_000_000_008, 561, 41041] {
            assert!(
                !big(c).is_probably_prime(&mut rng, 16),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn random_prime_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = BigUint::random_prime(&mut rng, 64, 12);
        assert_eq!(p.bits(), 64);
        assert!(p.is_probably_prime(&mut rng, 16));
    }

    #[test]
    fn random_below_stays_below() {
        let mut rng = StdRng::seed_from_u64(9);
        let bound = big(1000);
        for _ in 0..200 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v.cmp(&bound) == Ordering::Less);
        }
    }

    #[test]
    fn bits_and_bit_access() {
        let a = big(0b10100);
        assert_eq!(a.bits(), 5);
        assert!(a.bit(2));
        assert!(a.bit(4));
        assert!(!a.bit(0));
        assert!(!a.bit(100));
        assert_eq!(BigUint::zero().bits(), 0);
    }
}
