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

(** [canonical s] — [s] with every serial-numbered token renumbered by
    first occurrence, per prefix: the first [#]-token becomes [#0], the
    first [_tmp]-suffixed name [_tmp0], and so on, consistently at every
    occurrence in the text.

    Printed IR embeds ids drawn from process-global counters (SDFG node
    ids, MLIR value ids, tasklet serials), so the {e same} source
    compiled at two different points of a process prints with different
    serials. Canonicalizing before digesting makes the digest a pure
    function of the artifact's structure, so identical programs get one
    digest across requests and tenants. The rewrite is a bijective rename
    within one text (prefixes are preserved; distinct tokens stay
    distinct), so two texts share a canonical form only when they are
    identical up to consistent renaming of numbered identifiers.

    A token is a maximal run of identifier characters (including [%]
    and [#]) that {e starts} with a non-digit and {e ends} with digits;
    digit-led runs (numeric literals like [1.5e10] or [0x1A]) pass
    through untouched. *)
let canonical (s : string) : string =
  let is_digit c = c >= '0' && c <= '9' in
  let is_start c =
    (c >= 'A' && c <= 'Z')
    || (c >= 'a' && c <= 'z')
    || c = '_' || c = '%' || c = '#'
  in
  let is_part c = is_start c || is_digit c in
  let n = String.length s in
  let buf = Buffer.create n in
  let renamed : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let counters : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if is_part c then begin
      let j = ref !i in
      while !j < n && is_part s.[!j] do incr j done;
      let tok = String.sub s !i (!j - !i) in
      i := !j;
      (* Trailing-digit split: [k] is the prefix length. *)
      let k = ref (String.length tok) in
      while !k > 0 && is_digit tok.[!k - 1] do decr k done;
      if is_digit c || !k = 0 || !k = String.length tok then
        Buffer.add_string buf tok
      else
        let canon =
          match Hashtbl.find_opt renamed tok with
          | Some canon -> canon
          | None ->
              let prefix = String.sub tok 0 !k in
              let counter =
                match Hashtbl.find_opt counters prefix with
                | Some r -> r
                | None ->
                    let r = ref 0 in
                    Hashtbl.add counters prefix r;
                    r
              in
              let canon = Printf.sprintf "%s%d" prefix !counter in
              incr counter;
              Hashtbl.add renamed tok canon;
              canon
        in
        Buffer.add_string buf canon
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf
