(** Order statistics for the ledger's samples. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** Percentile [p] in [0, 100] by linear interpolation between the
    closest ranks. *)
let percentile (xs : float list) (p : float) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

(** First and third quartiles by the "exclusive" method of Python's
    [statistics.quantiles(xs, n=4)], the definition the run-to-run
    spread of this benchmark is judged by. One sample gives itself. *)
let quartiles (xs : float list) : float * float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let cut i =
      let m = (n + 1) * i in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = m - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 3)

let geomean (xs : float list) : float =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))
