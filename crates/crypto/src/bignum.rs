//! Arbitrary-precision unsigned integers.
//!
//! Only the operations needed by RSA are implemented: comparison, addition,
//! subtraction, multiplication, division with remainder, modular
//! exponentiation, modular inverse, and Miller–Rabin primality testing.
//! `BigUint` limbs are 32-bit, stored little-endian, so all intermediate
//! products fit in `u64` without overflow.  Exponentiation modulo an odd
//! number — the hot path of RSA — runs on [`MontgomeryCtx`], which holds the
//! modulus as 64-bit limbs.

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

    /// Division with remainder (binary long division).
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

        let shift = self.bits() - divisor.bits();
        let mut remainder = self.clone();
        let mut quotient = BigUint::zero();
        let mut shifted = divisor.shl(shift);
        for i in (0..=shift).rev() {
            if remainder.cmp(&shifted) != Ordering::Less {
                remainder = remainder.sub(&shifted);
                quotient = quotient.set_bit(i);
            }
            shifted = shifted.shr(1);
        }
        (quotient, remainder)
    }

    /// Return a copy with bit `i` set.
    fn set_bit(&self, i: usize) -> BigUint {
        let limb = i / 32;
        let offset = i % 32;
        let mut limbs = self.limbs.clone();
        if limbs.len() <= limb {
            limbs.resize(limb + 1, 0);
        }
        limbs[limb] |= 1 << offset;
        let mut out = BigUint { limbs };
        out.normalize();
        out
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
    /// Odd moduli (every RSA modulus and Miller–Rabin candidate) build a
    /// [`MontgomeryCtx`] and run its windowed kernel; even moduli take the
    /// square-and-multiply `mulmod` loop, which reduces with long division.
    pub fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        match MontgomeryCtx::new(modulus) {
            Some(ctx) => ctx.pow(self, exponent),
            None => self.modpow_naive(exponent, modulus),
        }
    }

    /// Bit-at-a-time square-and-multiply over `mulmod`: the path for even
    /// moduli, and the oracle the tests hold the Montgomery kernel against
    /// (it shares no code with it).
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

    /// Little-endian 64-bit limbs, zero-padded to at least `len` limbs.
    fn to_limbs64(&self, len: usize) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .limbs
            .chunks(2)
            .map(|pair| pair[0] as u64 | (pair.get(1).copied().unwrap_or(0) as u64) << 32)
            .collect();
        if out.len() < len {
            out.resize(len, 0);
        }
        out
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

        let ctx = MontgomeryCtx::new(self).expect("odd and above the small primes");
        'witness: for _ in 0..rounds {
            let a = BigUint::random_below(rng, &self.sub(&three)).add(&two);
            let mut x = ctx.pow(&a, &d);
            if x.cmp(&BigUint::one()) == Ordering::Equal || x.cmp(&n_minus_1) == Ordering::Equal {
                continue 'witness;
            }
            for _ in 0..s - 1 {
                x = ctx.mulmod(&x, &x);
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

/// Width of an exponent window in [`MontgomeryCtx::pow`].  It divides the
/// 32-bit limb, so no window straddles two limbs of the exponent.
const WINDOW_BITS: usize = 4;

/// Everything an exponentiation modulo one odd `n ≥ 3` needs that depends on
/// `n` alone, computed once per key: the modulus as 64-bit limbs, the
/// Montgomery constant and the two powers of `R = 2^(64·l)` that take values
/// into and out of the Montgomery domain.  This is the crate's only
/// odd-modulus kernel: [`BigUint::modpow`], Miller–Rabin and RSA all run on
/// it.  Products are CIOS over `u64` limbs with `u128` accumulators.
///
/// The schedule of products in [`MontgomeryCtx::pow`] depends on the
/// exponent's length only, but table lookups are indexed by its bits and the
/// final subtraction of each product is data-dependent: this is not
/// constant-time code.
#[derive(Clone)]
pub struct MontgomeryCtx {
    /// The modulus, `l` little-endian limbs with a non-zero top limb.
    n: Vec<u64>,
    /// `-n⁻¹ mod 2^64`.
    n0inv: u64,
    /// `R mod n`: the Montgomery form of one.
    r1: Vec<u64>,
    /// `R² mod n`: a Montgomery product with it enters the domain.
    r2: Vec<u64>,
}

impl fmt::Debug for MontgomeryCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MontgomeryCtx({} limbs)", self.n.len())
    }
}

impl MontgomeryCtx {
    /// The context of `modulus`, or `None` when it is even or below three.
    ///
    /// No long division: `R mod n` is `2^(bits−1)` doubled up to `R`, and
    /// `R² mod n` is the Montgomery form of two raised to the `64·l`-th power
    /// inside the domain (`log₂(64·l)` squarings, each set bit a doubling).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.bits() < 2 {
            return None;
        }
        let n = modulus.to_limbs64(0);
        let l = n.len();
        // 2-adic Newton iteration: an odd n0 is its own inverse to 3 bits,
        // and each step doubles the number of correct bits.
        let mut inv = n[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let mut ctx = MontgomeryCtx {
            n,
            n0inv: inv.wrapping_neg(),
            r1: Vec::new(),
            r2: Vec::new(),
        };

        let top_bit = modulus.bits() - 1;
        let mut r1 = vec![0; l];
        r1[top_bit / 64] = 1 << (top_bit % 64);
        for _ in top_bit..64 * l {
            ctx.double(&mut r1);
        }

        let mut acc = r1.clone();
        ctx.double(&mut acc);
        let (mut tmp, mut t) = (vec![0; l], vec![0; l + 2]);
        let power = 64 * l;
        for bit in (0..power.ilog2()).rev() {
            ctx.mul(&acc, &acc, &mut t, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
            if (power >> bit) & 1 == 1 {
                ctx.double(&mut acc);
            }
        }
        ctx.r1 = r1;
        ctx.r2 = acc;
        Some(ctx)
    }

    /// `base^exponent mod n`, for a base of any width.
    ///
    /// Fixed-window exponentiation that multiplies on every window, zero
    /// windows included (by the Montgomery form of one), so which products
    /// run depends on the exponent's length and not on its bits.
    pub fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if exponent.is_zero() {
            return BigUint::one();
        }
        let l = self.n.len();
        let mut t = vec![0; l + 2];
        let base = self.enter(base, &mut t);

        // table[i·l..][..l] = baseⁱ in Montgomery form.
        let mut table = vec![0; l << WINDOW_BITS];
        table[..l].copy_from_slice(&self.r1);
        table[l..2 * l].copy_from_slice(&base);
        for i in 2..1 << WINDOW_BITS {
            let (done, rest) = table.split_at_mut(i * l);
            self.mul(&done[(i - 1) * l..], &base, &mut t, &mut rest[..l]);
        }
        let entry = |window: usize| {
            let per_limb = 32 / WINDOW_BITS;
            let limb = exponent.limbs.get(window / per_limb).copied().unwrap_or(0);
            let digit =
                (limb >> (WINDOW_BITS * (window % per_limb))) as usize & ((1 << WINDOW_BITS) - 1);
            &table[digit * l..][..l]
        };

        let windows = exponent.bits().div_ceil(WINDOW_BITS);
        let mut acc = entry(windows - 1).to_vec();
        let mut tmp = vec![0; l];
        for window in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                self.mul(&acc, &acc, &mut t, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            self.mul(&acc, entry(window), &mut t, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        self.leave(&acc, &mut t)
    }

    /// `a · b mod n`, for operands of any width.
    pub fn mulmod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let l = self.n.len();
        let mut t = vec![0; l + 2];
        let (a, b) = (self.enter(a, &mut t), self.enter(b, &mut t));
        let mut product = vec![0; l];
        self.mul(&a, &b, &mut t, &mut product);
        self.leave(&product, &mut t)
    }

    /// `x · R mod n` for an `x` of any width: Horner's rule over `l`-limb
    /// chunks from the top, where "shift by one chunk" and "enter the
    /// domain" are both a Montgomery product with `R² mod n`.  An `x` of up
    /// to `l` limbs — a signature, a Miller–Rabin base — costs one product;
    /// a message reduced modulo one RSA prime costs three.
    fn enter(&self, x: &BigUint, t: &mut [u64]) -> Vec<u64> {
        let l = self.n.len();
        let limbs = x.to_limbs64(l);
        let (mut acc, mut tmp, mut chunk) = (vec![0; l], vec![0; l], vec![0; l]);
        for (i, part) in limbs.chunks(l).rev().enumerate() {
            chunk.fill(0);
            chunk[..part.len()].copy_from_slice(part);
            if i == 0 {
                self.mul(&chunk, &self.r2, t, &mut acc);
                continue;
            }
            self.mul(&acc, &self.r2, t, &mut tmp);
            self.mul(&chunk, &self.r2, t, &mut acc);
            let mut carry = 0;
            for (a, &b) in acc.iter_mut().zip(&tmp) {
                let sum = *a as u128 + b as u128 + carry;
                *a = sum as u64;
                carry = sum >> 64;
            }
            self.reduce_once(&mut acc, carry != 0);
        }
        acc
    }

    /// Leave the Montgomery domain: a product with one.
    fn leave(&self, x: &[u64], t: &mut [u64]) -> BigUint {
        let l = self.n.len();
        let mut one = vec![0; l];
        one[0] = 1;
        let mut out = vec![0; l];
        self.mul(x, &one, t, &mut out);
        BigUint::from_limbs64(&out)
    }

    /// CIOS Montgomery product: `out = a · b · R⁻¹ mod n`.  `a`, `b` and `out`
    /// hold `l` limbs, the scratch `t` holds `l + 2`; `b` is below `n` and `a`
    /// below `R`, which keeps every partial sum below `2n`.
    fn mul(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        let l = self.n.len();
        let (n, a, b) = (&self.n[..l], &a[..l], &b[..l]);
        let (t, out) = (&mut t[..l + 2], &mut out[..l]);
        t.fill(0);
        for &ai in a {
            // t += ai · b
            let ai = ai as u128;
            let mut carry = 0u128;
            for j in 0..l {
                let cur = t[j] as u128 + ai * b[j] as u128 + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[l] as u128 + carry;
            t[l] = cur as u64;
            t[l + 1] = (cur >> 64) as u64;

            // t = (t + m · n) / 2^64, with m chosen so the division is exact.
            let m = t[0].wrapping_mul(self.n0inv) as u128;
            let mut carry = (t[0] as u128 + m * n[0] as u128) >> 64;
            for j in 1..l {
                let cur = t[j] as u128 + m * n[j] as u128 + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[l] as u128 + carry;
            t[l - 1] = cur as u64;
            t[l] = t[l + 1] + (cur >> 64) as u64;
        }
        out.copy_from_slice(&t[..l]);
        self.reduce_once(out, t[l] != 0);
    }

    /// `x = 2x mod n` for an `x` below `n`.
    fn double(&self, x: &mut [u64]) {
        let mut carry = 0;
        for limb in x.iter_mut() {
            let shifted = (*limb << 1) | carry;
            carry = *limb >> 63;
            *limb = shifted;
        }
        self.reduce_once(x, carry != 0);
    }

    /// Subtract `n` from a value below `2n` whose bit `64·l` is `overflow`,
    /// if it is not already below `n`.
    fn reduce_once(&self, x: &mut [u64], overflow: bool) {
        let below = !overflow
            && x.iter()
                .rev()
                .zip(self.n.iter().rev())
                .find_map(|(a, b)| (a != b).then_some(a < b))
                .unwrap_or(false);
        if below {
            return;
        }
        let mut borrow = false;
        for (a, &b) in x.iter_mut().zip(&self.n) {
            let (diff, b1) = a.overflowing_sub(b);
            let (diff, b2) = diff.overflowing_sub(borrow as u64);
            *a = diff;
            borrow = b1 | b2;
        }
    }
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
