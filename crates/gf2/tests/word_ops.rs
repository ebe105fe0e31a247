//! The word-wise `BitVec` operations against bit-by-bit references.

use gf2::BitVec;
use proptest::prelude::*;

fn slice_ref(v: &BitVec, start: usize, count: usize) -> BitVec {
    BitVec::from_bits((start..start + count).map(|i| v.get(i)))
}

fn concat_ref(a: &BitVec, b: &BitVec) -> BitVec {
    BitVec::from_bits(a.iter().chain(b.iter()))
}

fn to_le_bytes_ref(v: &BitVec) -> Vec<u8> {
    let mut out = vec![0u8; v.len().div_ceil(8)];
    for i in 0..v.len() {
        if v.get(i) {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn from_le_bytes_ref(bytes: &[u8], len: usize) -> BitVec {
    BitVec::from_bits((0..len).map(|i| bytes.get(i / 8).is_some_and(|b| (b >> (i % 8)) & 1 == 1)))
}

fn from_words_ref(words: &[u64], len: usize) -> BitVec {
    BitVec::from_bits((0..len).map(|i| words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)))
}

fn arb_bits() -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), 0..201).prop_map(BitVec::from_bits)
}

/// A pseudo-random `len`-bit vector.
fn scrambled(len: usize, seed: u64) -> BitVec {
    let mut x = seed | 1;
    BitVec::from_bits((0..len).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x & 1 == 1
    }))
}

#[test]
fn slice_matches_reference_at_every_start_and_length() {
    let v = scrambled(200, 0x5EED);
    for start in 0..=200 {
        for count in 0..=200 - start {
            assert_eq!(
                v.slice(start, count),
                slice_ref(&v, start, count),
                "start={start} count={count}"
            );
        }
    }
}

#[test]
fn append_and_concat_match_reference_across_word_boundaries() {
    for la in [0usize, 1, 37, 63, 64, 65, 127, 128, 129, 200] {
        for lb in [0usize, 1, 5, 63, 64, 65, 130, 200] {
            let (a, b) = (scrambled(la, la as u64 + 1), scrambled(lb, 99 + lb as u64));
            let expect = concat_ref(&a, &b);
            assert_eq!(a.concat(&b), expect, "la={la} lb={lb}");
            let mut c = a.clone();
            c.append(&b);
            assert_eq!(c, expect, "la={la} lb={lb}");
            assert_eq!(c.words().len(), (la + lb).div_ceil(64), "la={la} lb={lb}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slice_agrees_with_bitwise(v in arb_bits(), x in any::<u64>(), y in any::<u64>()) {
        let start = (x % (v.len() as u64 + 1)) as usize;
        let count = (y % ((v.len() - start) as u64 + 1)) as usize;
        prop_assert_eq!(v.slice(start, count), slice_ref(&v, start, count));
    }

    #[test]
    fn concat_and_append_agree_with_bitwise(a in arb_bits(), b in arb_bits()) {
        let expect = concat_ref(&a, &b);
        prop_assert_eq!(a.concat(&b), expect.clone());
        let mut c = a.clone();
        c.append(&b);
        prop_assert_eq!(c, expect);
    }

    #[test]
    fn le_bytes_agree_with_bitwise(v in arb_bits(), pad in proptest::collection::vec(any::<u8>(), 0..4)) {
        let bytes = v.to_le_bytes();
        prop_assert_eq!(bytes.clone(), to_le_bytes_ref(&v));
        prop_assert_eq!(BitVec::from_le_bytes(&bytes, v.len()), v.clone());
        // Extra bytes, and bits beyond `len`, are ignored on decode.
        let mut noisy = bytes;
        noisy.extend(pad);
        if !v.len().is_multiple_of(8) {
            noisy[v.len() / 8] |= 0xFF << (v.len() % 8);
        }
        prop_assert_eq!(BitVec::from_le_bytes(&noisy, v.len()), from_le_bytes_ref(&noisy, v.len()));
        prop_assert_eq!(BitVec::from_le_bytes(&noisy, v.len()), v);
    }

    #[test]
    fn from_words_and_resized_agree_with_bitwise(
        words in proptest::collection::vec(any::<u64>(), 0..5),
        len in 0usize..201,
        new_len in 0usize..201,
    ) {
        let v = BitVec::from_words(words.clone(), len);
        prop_assert_eq!(v.clone(), from_words_ref(&words, len));
        prop_assert_eq!(v.words().len(), len.div_ceil(64));
        let padded = from_words_ref(&words, len.min(new_len));
        prop_assert_eq!(v.resized(new_len), concat_ref(&padded, &BitVec::zeros(new_len - len.min(new_len))));
    }
}
