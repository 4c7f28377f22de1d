(** Canonicalization: constant folding, algebraic identities, and
    control-flow simplification ([scf.if] with a constant condition is
    spliced; [scf.for] with an empty constant trip count is deleted). *)

open Dcir_mlir

(* Constant lookup shared with the other passes; rebuilt per fixpoint
   iteration (cheap at our IR sizes). *)
let build_const_map = Pass_util.const_map
let const_int = Pass_util.const_int

let const_float (tbl : (int, Attr.t) Hashtbl.t) (v : Ir.value) : float option
    =
  match Hashtbl.find_opt tbl v.vid with
  | Some (Attr.AFloat f) -> Some f
  | _ -> None

(* Result of trying to simplify one op. *)
type action =
  | Keep
  | ReplaceWithConst of Attr.t
  | ReplaceWithValue of Ir.value
  | SpliceRegion of Ir.region  (** inline this region's ops minus terminator *)
  | Delete

let simplify_op (tbl : (int, Attr.t) Hashtbl.t) (o : Ir.op) : action =
  let ci = const_int tbl and cf = const_float tbl in
  let operand n = List.nth o.operands n in
  match o.name with
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
  | "arith.maxsi" | "arith.minsi" | "arith.andi" | "arith.ori" | "arith.xori"
    -> (
      let a = operand 0 and b = operand 1 in
      match (o.name, ci a, ci b) with
      | "arith.divsi", _, Some 0 | "arith.remsi", _, Some 0 -> Keep
      | "arith.addi", Some x, Some y -> ReplaceWithConst (AInt (x + y))
      | "arith.subi", Some x, Some y -> ReplaceWithConst (AInt (x - y))
      | "arith.muli", Some x, Some y -> ReplaceWithConst (AInt (x * y))
      | "arith.divsi", Some x, Some y -> ReplaceWithConst (AInt (x / y))
      | "arith.remsi", Some x, Some y -> ReplaceWithConst (AInt (x mod y))
      | "arith.maxsi", Some x, Some y -> ReplaceWithConst (AInt (max x y))
      | "arith.minsi", Some x, Some y -> ReplaceWithConst (AInt (min x y))
      | "arith.andi", Some x, Some y -> ReplaceWithConst (AInt (x land y))
      | "arith.ori", Some x, Some y -> ReplaceWithConst (AInt (x lor y))
      | "arith.xori", Some x, Some y -> ReplaceWithConst (AInt (x lxor y))
      | "arith.addi", Some 0, _ -> ReplaceWithValue b
      | "arith.addi", _, Some 0 -> ReplaceWithValue a
      | "arith.subi", _, Some 0 -> ReplaceWithValue a
      | "arith.muli", Some 1, _ -> ReplaceWithValue b
      | "arith.muli", _, Some 1 -> ReplaceWithValue a
      | "arith.muli", Some 0, _ | "arith.muli", _, Some 0 ->
          ReplaceWithConst (AInt 0)
      | "arith.divsi", _, Some 1 -> ReplaceWithValue a
      | _ -> Keep)
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" -> (
      let a = operand 0 and b = operand 1 in
      match (o.name, cf a, cf b) with
      | "arith.addf", Some x, Some y -> ReplaceWithConst (AFloat (x +. y))
      | "arith.subf", Some x, Some y -> ReplaceWithConst (AFloat (x -. y))
      | "arith.mulf", Some x, Some y -> ReplaceWithConst (AFloat (x *. y))
      | "arith.divf", Some x, Some y -> ReplaceWithConst (AFloat (x /. y))
      (* x+0.0 / x*1.0 are safe even under IEEE (no signed-zero workloads) *)
      | "arith.addf", Some 0.0, _ -> ReplaceWithValue b
      | "arith.addf", _, Some 0.0 -> ReplaceWithValue a
      | "arith.mulf", Some 1.0, _ -> ReplaceWithValue b
      | "arith.mulf", _, Some 1.0 -> ReplaceWithValue a
      | "arith.divf", _, Some 1.0 -> ReplaceWithValue a
      | _ -> Keep)
  | "arith.cmpi" -> (
      match (ci (operand 0), ci (operand 1), Ir.str_attr o "predicate") with
      | Some x, Some y, Some pred ->
          let r =
            match pred with
            | "eq" -> x = y
            | "ne" -> x <> y
            | "slt" | "ult" -> x < y
            | "sle" | "ule" -> x <= y
            | "sgt" | "ugt" -> x > y
            | _ -> x >= y
          in
          ReplaceWithConst (AInt (if r then 1 else 0))
      | _ -> Keep)
  | "arith.select" -> (
      match ci (operand 0) with
      | Some c -> ReplaceWithValue (operand (if c <> 0 then 1 else 2))
      | None -> Keep)
  | "arith.index_cast" -> (
      (* index -> index casts and constant casts fold away. *)
      let a = operand 0 in
      if Types.equal a.vty (Ir.result o).vty then ReplaceWithValue a
      else
        match ci a with
        | Some n -> ReplaceWithConst (AInt n)
        | None -> Keep)
  | "arith.sitofp" -> (
      match ci (operand 0) with
      | Some n -> ReplaceWithConst (AFloat (float_of_int n))
      | None -> Keep)
  | "scf.if" -> (
      match ci (operand 0) with
      | Some c ->
          let then_r, else_r = Scf_d.if_regions o in
          SpliceRegion (if c <> 0 then then_r else else_r)
      | None -> Keep)
  | "scf.for" -> (
      let lb, ub, step = Scf_d.loop_bounds o in
      match (ci lb, ci ub, ci step) with
      | Some l, Some u, Some _ when l >= u ->
          (* Zero-trip loop; loops with results are handled by the caller,
             which must rewire results to the iteration inits. *)
          if o.results = [] then Delete else Keep
      | _ -> Keep)
  | _ -> Keep

let run_on_func (f : Ir.func) : bool =
  match f.fbody with
  | None -> false
  | Some body ->
      let changed = ref false in
      let continue_ = ref true in
      while !continue_ do
        continue_ := false;
        let tbl = build_const_map body in
        let rec process_region (r : Ir.region) =
          let new_ops =
            List.concat_map
              (fun (o : Ir.op) ->
                match simplify_op tbl o with
                | Keep ->
                    (* Zero-trip loops with results: replace results by inits
                       and delete. *)
                    if
                      String.equal o.name "scf.for" && o.results <> []
                      &&
                      let lb, ub, _ = Scf_d.loop_bounds o in
                      match (const_int tbl lb, const_int tbl ub) with
                      | Some l, Some u -> l >= u
                      | _ -> false
                    then begin
                      List.iter2
                        (fun res init ->
                          Ir.replace_uses_in_region body ~from_:res ~to_:init)
                        o.results
                        (Scf_d.loop_iter_inits o);
                      changed := true;
                      continue_ := true;
                      []
                    end
                    else begin
                      List.iter process_region o.regions;
                      [ o ]
                    end
                | ReplaceWithConst a ->
                    let res = Ir.result o in
                    let c = Ir.new_op "arith.constant" ~results:[ Ir.new_value ~hint:"c" res.vty ] ~attrs:[ ("value", a) ] in
                    Ir.replace_uses_in_region body ~from_:res ~to_:(Ir.result c);
                    changed := true;
                    continue_ := true;
                    [ c ]
                | ReplaceWithValue v ->
                    List.iter
                      (fun res -> Ir.replace_uses_in_region body ~from_:res ~to_:v)
                      o.results;
                    changed := true;
                    continue_ := true;
                    []
                | SpliceRegion reg ->
                    changed := true;
                    continue_ := true;
                    (* The region's trailing scf.yield feeds the op's
                       results; remaining ops are spliced in place. *)
                    (match
                       List.find_opt
                         (fun (op : Ir.op) -> String.equal op.name "scf.yield")
                         reg.rops
                     with
                    | Some y ->
                        List.iter2
                          (fun res v ->
                            Ir.replace_uses_in_region body ~from_:res ~to_:v)
                          o.results y.operands
                    | None -> assert (o.results = []));
                    List.filter
                      (fun (op : Ir.op) -> not (String.equal op.name "scf.yield"))
                      reg.rops
                | Delete ->
                    changed := true;
                    continue_ := true;
                    [])
              r.rops
          in
          r.rops <- new_ops
        in
        process_region body
      done;
      (* Constants float to the top of their region: keeps them out of the
         statement sequence (state granularity on the data-centric side) and
         mirrors MLIR's canonical constant placement. A move is a change. *)
      let rec hoist_constants (r : Ir.region) =
        List.iter
          (fun (o : Ir.op) -> List.iter hoist_constants o.regions)
          r.rops;
        let consts, rest =
          List.partition
            (fun (o : Ir.op) -> String.equal o.name "arith.constant")
            r.rops
        in
        let hoisted = consts @ rest in
        if not (List.for_all2 ( == ) hoisted r.rops) then begin
          r.rops <- hoisted;
          changed := true
        end
      in
      hoist_constants body;
      !changed

let pass : Pass.t = Pass.per_function "canonicalize" run_on_func
