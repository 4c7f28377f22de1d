(** Symbolic ranges and subsets — the language of memlets.

    A memlet in an SDFG names a data container and the subset of its elements
    being moved. Subsets are lists of per-dimension ranges
    [{lo; hi; step}] with inclusive bounds, exactly like DaCe's [Range]
    subsets (e.g. [A[0:N, i]] is [[0, N-1, 1]; [i, i, 1]]).

    The operations here back the paper's analyses: number of moved elements
    (volume), bounding-box union (memlet consolidation, §6.2), containment
    (memlet propagation refinement, §5.1) and best-effort disjointness
    (state fusion race checks, §6.1). *)

type dim = { lo : Expr.t; hi : Expr.t; step : Expr.t }

type t = dim list

let dim ?(step = Expr.one) lo hi = { lo; hi; step }

(** A single index [e], i.e. the range [e:e]. *)
let index (e : Expr.t) : dim = { lo = e; hi = e; step = Expr.one }

(** The full range of a dimension of size [size]: [0 : size-1]. *)
let full (size : Expr.t) : dim =
  { lo = Expr.zero; hi = Expr.sub size Expr.one; step = Expr.one }

let of_indices (idxs : Expr.t list) : t = List.map index idxs

let is_index (d : dim) : bool = Expr.equal d.lo d.hi

(** Number of elements covered by one dimension: [(hi - lo) / step + 1]. *)
let dim_size (d : dim) : Expr.t =
  Expr.add (Expr.div (Expr.sub d.hi d.lo) d.step) Expr.one

(** Total number of elements moved by the subset. *)
let volume (s : t) : Expr.t = Expr.mul_list (List.map dim_size s)

let equal_dim (a : dim) (b : dim) : bool =
  Expr.equal a.lo b.lo && Expr.equal a.hi b.hi && Expr.equal a.step b.step

let equal (a : t) (b : t) : bool =
  List.length a = List.length b && List.for_all2 equal_dim a b

(** Bounding-box union; steps collapse to 1 when they differ. This is the
    "data movement common denominator" used by memlet consolidation. *)
let union (a : t) (b : t) : t =
  if List.length a <> List.length b then
    invalid_arg "Range.union: dimensionality mismatch";
  List.map2
    (fun da db ->
      {
        lo = Expr.min_ da.lo db.lo;
        hi = Expr.max_ da.hi db.hi;
        step = (if Expr.equal da.step db.step then da.step else Expr.one);
      })
    a b

(** [covers outer inner]: true when every point of [inner] is provably inside
    the bounding box of [outer]. Three-valued in spirit: [false] means
    "cannot prove containment", not "provably outside". *)
let covers (outer : t) (inner : t) : bool =
  List.length outer = List.length inner
  && List.for_all2
       (fun o i ->
         Bexpr.decide (Bexpr.le o.lo i.lo) = Some true
         && Bexpr.decide (Bexpr.ge o.hi i.hi) = Some true)
       outer inner

(** Best-effort disjointness: provably non-overlapping bounding boxes in at
    least one dimension. [false] means "may overlap". *)
let disjoint (a : t) (b : t) : bool =
  List.length a = List.length b
  && List.exists2
       (fun da db ->
         Bexpr.decide (Bexpr.lt da.hi db.lo) = Some true
         || Bexpr.decide (Bexpr.lt db.hi da.lo) = Some true)
       a b

(* ------------------------------------------------------------------ *)
(* Per-iteration independence — the queries behind the loop→map
   dependence tester. All are three-valued in spirit: [false] means
   "cannot prove", never "provably dependent". *)

(** Provably non-overlapping in one dimension, for all symbol values. *)
let dim_apart (a : dim) (b : dim) : bool =
  Bexpr.decide (Bexpr.lt a.hi b.lo) = Some true
  || Bexpr.decide (Bexpr.lt b.hi a.lo) = Some true

(** [iter_disjoint ~sym a b]: for {e any two distinct} integer values
    [v1 <> v2] of [sym], are [a{sym:=v1}] and [b{sym:=v2}] provably
    disjoint subsets of the same container?

    Per dimension, three sufficient arguments are tried (one suffices):
    - the dimension pair is apart for every value of [sym] ({!dim_apart});
    - both are single indices given by the {e same} expression, linear in
      [sym] with non-zero coefficient — injectivity makes distinct
      iterations hit distinct indices;
    - all four bounds are linear in [sym] with one shared coefficient [c],
      and consecutive iterations already clear each other:
      [|c| + (lo_b - hi_a) >= 1] and [|c| + (lo_a - hi_b) >= 1]. The [sym]
      terms cancel in the differences, so {!Bexpr.decide} can settle them;
      separation only grows with larger iteration distance.

    Steps are ignored (bounding-box conservative). *)
let iter_disjoint ~(sym : string) (a : t) (b : t) : bool =
  List.length a = List.length b
  && List.exists2
       (fun (da : dim) (db : dim) ->
         let uses_sym e = List.mem sym (Expr.free_syms e) in
         if (not (uses_sym da.lo)) && (not (uses_sym da.hi))
            && (not (uses_sym db.lo))
            && not (uses_sym db.hi)
         then dim_apart da db
         else if
           is_index da && is_index db && Expr.equal da.lo db.lo
         then
           match Solve.linear_in sym da.lo with
           | Some (c, _) -> c <> 0
           | None -> false
         else
           match
             ( Solve.linear_in sym da.lo,
               Solve.linear_in sym da.hi,
               Solve.linear_in sym db.lo,
               Solve.linear_in sym db.hi )
           with
           | Some (c1, _), Some (c2, _), Some (c3, _), Some (c4, _)
             when c1 = c2 && c2 = c3 && c3 = c4 ->
               let c = Expr.int (abs c1) in
               let ge1 x y =
                 Bexpr.decide (Bexpr.ge (Expr.add c (Expr.sub x y)) Expr.one)
                 = Some true
               in
               ge1 db.lo da.hi && ge1 da.lo db.hi
           | _ -> false)
       a b

(** [widen ~sym ~lo ~hi s] over-approximates the union of [s{sym:=v}] for
    [v] in [lo..hi] — memlet propagation (§5.1) out of a map scope. Bounds
    linear in [sym] move monotonically, so substituting the extreme
    iteration values bounds them; non-linear bounds fall back to the
    min/max of both substitutions. *)
let widen ~(sym : string) ~(lo : Expr.t) ~(hi : Expr.t) (s : t) : t =
  let at v e = Expr.subst_one sym v e in
  List.map
    (fun d ->
      let wlo, whi =
        match
          (Solve.linear_in sym d.lo, Solve.linear_in sym d.hi)
        with
        | Some (c1, _), Some (c2, _) when c1 > 0 && c2 > 0 ->
            (at lo d.lo, at hi d.hi)
        | Some (c1, _), Some (c2, _) when c1 < 0 && c2 < 0 ->
            (at hi d.lo, at lo d.hi)
        | _ ->
            if
              List.mem sym (Expr.free_syms d.lo)
              || List.mem sym (Expr.free_syms d.hi)
            then
              ( Expr.min_ (at lo d.lo) (at hi d.lo),
                Expr.max_ (at lo d.hi) (at hi d.hi) )
            else (d.lo, d.hi)
      in
      { lo = wlo; hi = whi; step = d.step })
    s

let subst (lookup : string -> Expr.t option) (s : t) : t =
  List.map
    (fun d ->
      {
        lo = Expr.subst lookup d.lo;
        hi = Expr.subst lookup d.hi;
        step = Expr.subst lookup d.step;
      })
    s

let free_syms (s : t) : string list =
  let module S = Set.Make (String) in
  S.elements
    (S.of_list
       (List.concat_map
          (fun d ->
            Expr.free_syms d.lo @ Expr.free_syms d.hi @ Expr.free_syms d.step)
          s))

let pp_dim (ppf : Format.formatter) (d : dim) : unit =
  if is_index d then Expr.pp ppf d.lo
  else if Expr.equal d.step Expr.one then
    Fmt.pf ppf "%a:%a" Expr.pp d.lo Expr.pp d.hi
  else Fmt.pf ppf "%a:%a:%a" Expr.pp d.lo Expr.pp d.hi Expr.pp d.step

let pp (ppf : Format.formatter) (s : t) : unit =
  Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any ", ") pp_dim) s

let to_string (s : t) : string = Fmt.str "%a" pp s
