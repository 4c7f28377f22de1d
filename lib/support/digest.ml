(** Deterministic content digests of printed programs.

    A digest is a pure function of the input bytes — no host state, no
    randomization, no dependence on word size beyond the fixed 64-bit
    arithmetic of [Int64] — so the same printed program hashes to the
    same digest on every machine and every run. [dcir serve] journals one
    per compile response, and [test/compile_digests.expected] pins one
    per compile product.

    The construction is two independent FNV-1a-style 64-bit lanes (with
    distinct offset bases and an extra avalanche mix borrowed from
    splitmix64) concatenated into a 32-hex-character string. This is not
    a cryptographic hash — the threat model is accidental collision
    between distinct printed programs, not an adversary forging keys —
    and 128 bits of well-mixed state makes accidental collision
    negligible at any plausible number of programs. *)

(* FNV-1a primes/offsets (64-bit), second lane offset is the first with
   the bits of pi folded in so the lanes decorrelate from the start. *)
let fnv_prime = 0x100000001B3L
let offset_a = 0xCBF29CE484222325L
let offset_b = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer: full avalanche, so nearby inputs (one changed
   byte) land in unrelated buckets. *)
let mix (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let lane (offset : int64) (s : string) : int64 =
  let h = ref offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  mix !h

(** [of_string s] — the 32-hex-character content digest of [s]. *)
let of_string (s : string) : string =
  Printf.sprintf "%016Lx%016Lx" (lane offset_a s) (lane offset_b s)
