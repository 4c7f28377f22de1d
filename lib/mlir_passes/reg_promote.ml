(** Register promotion of loop-invariant array references.

    For a [scf.for] whose body accesses [C[i][j]] with indices invariant in
    the loop, the value is loaded once before the loop, carried through an
    [iter_arg], and stored back once after — the scalar-replacement that lets
    [C[i][j] += A[i][k] * B[k][j]] accumulate in a register.

    This is the -O3 behaviour of GCC/Clang that the paper's measured MLIR
    pipeline misses on memrefs (§7.2's geomean gap); in this repository the
    gcc/clang proxies run it while the MLIR proxy does not, and DCIR later
    recovers the same effect on the SDFG side.

    Safety conditions per promoted reference:
    - all accesses to that memref inside the loop are at the body's top
      level (unconditional) and use the identical index value list;
    - every index value and the memref itself are defined outside the loop;
    - the loop body contains no calls. *)

open Dcir_mlir

let idx_key (idxs : Ir.value list) : string =
  String.concat "," (List.map (fun v -> string_of_int v.Ir.vid) idxs)

(* All accesses (recursively) to each memref inside [r]. *)
let recursive_access_count (r : Ir.region) : (int, int) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  let bump (mr : Ir.value) =
    Hashtbl.replace tbl mr.vid
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl mr.vid))
  in
  Ir.walk_region r (fun o ->
      match o.name with
      | "memref.load" -> bump (List.hd o.operands)
      | "memref.store" -> bump (List.nth o.operands 1)
      | "memref.dealloc" -> bump (List.hd o.operands)
      | _ -> ());
  tbl

type candidate = {
  mr : Ir.value;
  idxs : Ir.value list;
  elem_ty : Types.t;
  has_store : bool;
}

let find_candidates (o : Ir.op) : candidate list =
  let body = Scf_d.loop_body o in
  if Pass_util.region_has_calls body then []
  else begin
    let defined_inside = Hashtbl.create 32 in
    List.iter
      (fun (v : Ir.value) -> Hashtbl.replace defined_inside v.vid ())
      (Ir.defined_values body);
    let invariant (v : Ir.value) = not (Hashtbl.mem defined_inside v.vid) in
    let recursive = recursive_access_count body in
    (* Group top-level accesses per memref, keeping the memrefs in order
       of first access: that order decides the preloads and iter_args,
       so it must not depend on the memrefs' ids. *)
    let groups : (int, (string * Ir.value list * bool) list) Hashtbl.t =
      Hashtbl.create 8
    in
    let first_accessed = ref [] in
    List.iter
      (fun (op : Ir.op) ->
        let note (mr : Ir.value) idxs is_store =
          if not (Hashtbl.mem groups mr.vid) then
            first_accessed := mr :: !first_accessed;
          Hashtbl.replace groups mr.vid
            ((idx_key idxs, idxs, is_store)
            :: Option.value ~default:[] (Hashtbl.find_opt groups mr.vid))
        in
        match op.name with
        | "memref.load" ->
            let mr, idxs = Memref_d.load_parts op in
            note mr idxs false
        | "memref.store" ->
            let _, mr, idxs = Memref_d.store_parts op in
            note mr idxs true
        | _ -> ())
      body.rops;
    List.rev !first_accessed
    |> List.filter_map (fun (mr : Ir.value) ->
           let accesses = Hashtbl.find groups mr.vid in
           let rec_count =
             Option.value ~default:0 (Hashtbl.find_opt recursive mr.vid)
           in
           match accesses with
           | (key0, idxs0, _) :: _
             when List.length accesses = rec_count
                  && List.for_all
                       (fun (k, _, _) -> String.equal k key0)
                       accesses
                  && List.for_all invariant idxs0
                  && invariant mr ->
               Some
                 {
                   mr;
                   idxs = idxs0;
                   elem_ty = Types.elem_type mr.vty;
                   has_store = List.exists (fun (_, _, s) -> s) accesses;
                 }
           | _ -> None)
    |> List.filter (fun c -> c.has_store)
    (* Read-only invariant references are LICM's job. *)
  end

(* Promote one candidate in place; returns ops to insert before and after
   the loop. *)
let promote (o : Ir.op) (c : candidate) : Ir.op list * Ir.op list =
  let body = Scf_d.loop_body o in
  let preload = Memref_d.load c.mr c.idxs in
  let arg = Ir.new_value ~hint:"reg" c.elem_ty in
  let current = ref arg in
  body.rops <-
    List.concat_map
      (fun (op : Ir.op) ->
        match op.name with
        | "memref.load" when (List.hd op.operands).vid = c.mr.vid ->
            Ir.replace_uses_in_region body ~from_:(Ir.result op) ~to_:!current;
            []
        | "memref.store" when (List.nth op.operands 1).vid = c.mr.vid ->
            current := List.hd op.operands;
            []
        | _ -> [ op ])
      body.rops;
  (match List.rev body.rops with
  | (last : Ir.op) :: _ when String.equal last.name "scf.yield" ->
      last.operands <- last.operands @ [ !current ]
  | _ -> failwith "reg_promote: loop body without scf.yield");
  body.rargs <- body.rargs @ [ arg ];
  o.operands <- o.operands @ [ Ir.result preload ];
  let res = Ir.new_value ~hint:"reg" c.elem_ty in
  o.results <- o.results @ [ res ];
  let poststore = Memref_d.store res c.mr c.idxs in
  ([ preload ], [ poststore ])

let run_on_func (f : Ir.func) : bool =
  match f.fbody with
  | None -> false
  | Some body ->
      let changed = ref false in
      let rec process_region (r : Ir.region) =
        List.iter (fun (o : Ir.op) -> List.iter process_region o.regions) r.rops;
        r.rops <-
          List.concat_map
            (fun (o : Ir.op) ->
              if String.equal o.name "scf.for" then begin
                let pre = ref [] and post = ref [] in
                List.iter
                  (fun c ->
                    let p, q = promote o c in
                    pre := !pre @ p;
                    post := !post @ q;
                    changed := true)
                  (find_candidates o);
                !pre @ [ o ] @ !post
              end
              else [ o ])
            r.rops
      in
      process_region body;
      !changed

let pass : Pass.t = Pass.per_function "reg-promote" run_on_func
