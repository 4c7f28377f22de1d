(** The MLIR → sdfg-dialect converter (§5.1 of the paper).

    Converts the four source dialects ([scf], [arith], [math], [memref]) into
    the [sdfg] dialect:

    - every [?] memref dimension is replaced by a {e unique symbol}
      ([s_0], [s_1], ...), preserving MLIR semantics (①);
    - memory operations become [sdfg.load]/[sdfg.store] with symbolic
      subsets; indices that are not yet symbols reference the scalar
      container by name — DaCe's symbolic engine refines them after
      scalar-to-symbol promotion (②, §6.1);
    - every computation lands in its own [sdfg.state] with its own
      single-op [sdfg.tasklet] (③), later enlarged by state fusion;
    - [scf.for] becomes the guard-pattern state loop whose induction
      variable is a symbol assigned on interstate edges; [scf.if] becomes a
      conditional branch in the state machine;
    - index arithmetic whose operands are all already symbolic folds
      directly into symbolic expressions (the forward value propagation the
      converter performs on the MLIR side).

    Functions must be inlined before conversion ([func.call] is rejected) —
    the pipeline runs the inliner in its control-centric stage (§4). *)

open Dcir_mlir
open Dcir_symbolic

module Diag = Dcir_support.Diagnostics

let err fmt = Diag.fail ~code:"E-CONVERT" ~phase:Diag.Convert fmt

(* How an MLIR SSA value is represented on the data-centric side. *)
type vkind =
  | KSym of Expr.t  (** symbolic value (loop ivs, folded index arithmetic) *)
  | KScalar of string  (** scalar data container *)
  | KArray of string  (** array container (memref) *)

type cctx = {
  gen : Dcir_support.Id_gen.t;
  kinds : (int, vkind) Hashtbl.t;
  containers : (string, Ir.value) Hashtbl.t;  (** container -> alloc result *)
  mutable allocs : Ir.op list;  (** reversed *)
  mutable body : Ir.op list;  (** states + edges, reversed *)
  mutable tail : string;  (** label awaiting an edge to the next state *)
  mutable loop_depth : int;
  mutable symbols : string list;  (** size symbols introduced for [?] dims *)
}

let fresh_label (ctx : cctx) (prefix : string) : string =
  Dcir_support.Id_gen.fresh ctx.gen prefix

let push_state (ctx : cctx) (label : string) (ops : Ir.op list) : unit =
  ctx.body <- Sdfg_d.state ~id:label ops :: ctx.body

let push_edge (ctx : cctx) ?(cond = Bexpr.true_) ?(assign = []) ~(src : string)
    ~(dst : string) () : unit =
  ctx.body <-
    Sdfg_d.edge ~condition:cond ~assignments:assign ~src ~dst () :: ctx.body

(* Append a state after the current tail with an unconditional edge. *)
let seq_state (ctx : cctx) (label : string) (ops : Ir.op list) : unit =
  push_state ctx label ops;
  push_edge ctx ~src:ctx.tail ~dst:label ();
  ctx.tail <- label

let kind_of (ctx : cctx) (v : Ir.value) : vkind =
  match Hashtbl.find_opt ctx.kinds v.vid with
  | Some k -> k
  | None -> err "no conversion for SSA value %s" (Printer.value_name v)

let set_kind (ctx : cctx) (v : Ir.value) (k : vkind) : unit =
  Hashtbl.replace ctx.kinds v.vid k

(* The symbolic expression for a value used as an index/bound: real symbols
   for ivs, container-name pseudo-symbols for scalar containers. *)
let index_expr (ctx : cctx) (v : Ir.value) : Expr.t =
  match kind_of ctx v with
  | KSym e -> e
  | KScalar name -> Expr.sym name
  | KArray name -> err "array container '%s' used as an index" name

let dtype_of (ty : Types.t) : string =
  if Types.is_float (Types.elem_type ty) then "float" else "int"

(* Declare a container and emit its sdfg.alloc op. *)
let declare_container (ctx : cctx) ?(transient = true) ?(storage = "register")
    ?(alloc_in_loop = false) ?(alloc_state = "") ~(name : string)
    (ty : Types.t) : Ir.value =
  let op = Sdfg_d.alloc ~transient ~container:name ty in
  Ir.set_attr op "storage" (Attr.AStr storage);
  Ir.set_attr op "dtype" (Attr.AStr (dtype_of ty));
  if alloc_in_loop then Ir.set_attr op "alloc_in_loop" (Attr.ABool true);
  if not (String.equal alloc_state "") then
    Ir.set_attr op "alloc_state" (Attr.AStr alloc_state);
  ctx.allocs <- op :: ctx.allocs;
  let res = Ir.result op in
  Hashtbl.replace ctx.containers name res;
  res

let fresh_scalar (ctx : cctx) ?(prefix = "t") (ty : Types.t) : string * Ir.value
    =
  let name = Dcir_support.Id_gen.fresh ctx.gen ("_" ^ prefix) in
  let v = declare_container ctx ~name (Types.SdfgArray (ty, [])) in
  (name, v)

(* Convert memref dims to sdfg array dims, consuming dynamic-size operands. *)
let convert_dims (ctx : cctx) (dims : Types.dim list) (dyn : Ir.value list) :
    Types.dim list =
  let remaining = ref dyn in
  List.map
    (fun (d : Types.dim) ->
      match d with
      | Types.Static n -> Types.Static n
      | Types.SymDim e -> Types.SymDim e
      | Types.Dynamic -> (
          match !remaining with
          | v :: rest ->
              remaining := rest;
              Types.SymDim (index_expr ctx v)
          | [] -> err "missing dynamic size operand"))
    dims

(* ------------------------------------------------------------------ *)
(* Tasklet construction for a single computational op *)

(* Build the state implementing `%r = op(%a, %b, ...)`:
   loads for scalar-container operands, sdfg.sym for symbolic operands,
   a one-op tasklet, and a store into the result container. *)
let convert_compute (ctx : cctx) (o : Ir.op) : unit =
  let res = Ir.result o in
  let res_name, res_container = fresh_scalar ctx ~prefix:"v" res.vty in
  set_kind ctx res (KScalar res_name);
  let state_ops = ref [] in
  (* Gather tasklet operands: loads for scalars, arrays passed directly. *)
  let tasklet_inputs =
    List.map
      (fun (v : Ir.value) ->
        match kind_of ctx v with
        | KScalar name ->
            let container = Hashtbl.find ctx.containers name in
            let ld = Sdfg_d.load ~subset:[] container [] in
            state_ops := ld :: !state_ops;
            `Value (Ir.result ld)
        | KArray name -> `Value (Hashtbl.find ctx.containers name)
        | KSym e -> `Sym e)
      o.operands
  in
  let real_inputs =
    List.filter_map (function `Value v -> Some v | `Sym _ -> None)
      tasklet_inputs
  in
  let tasklet =
    Sdfg_d.tasklet ~inputs:real_inputs ~result_tys:[ res.vty ] (fun args ->
        (* Mirror the op inside the isolated region, substituting region args
           for loaded operands and sdfg.sym for symbolic ones. *)
        let args = ref args in
        let sym_ops = ref [] in
        let operands =
          List.map
            (function
              | `Value _ -> (
                  match !args with
                  | a :: rest ->
                      args := rest;
                      a
                  | [] -> err "tasklet argument underflow")
              | `Sym e ->
                  let s = Sdfg_d.sym e in
                  sym_ops := s :: !sym_ops;
                  Ir.result s)
            tasklet_inputs
        in
        let inner =
          Ir.new_op o.name ~operands
            ~results:[ Ir.new_value res.vty ]
            ~attrs:o.attrs
        in
        List.rev !sym_ops @ [ inner; Sdfg_d.return_ [ Ir.result inner ] ])
  in
  state_ops := tasklet :: !state_ops;
  let store =
    Sdfg_d.store ~subset:[] (Ir.result tasklet) res_container []
  in
  state_ops := store :: !state_ops;
  let label = fresh_label ctx (String.map (fun c -> if c = '.' then '_' else c) o.name) in
  seq_state ctx label (List.rev !state_ops)

(* ------------------------------------------------------------------ *)
(* Statement-level conversion *)

let rec convert_ops (ctx : cctx) (ops : Ir.op list) : unit =
  List.iter (convert_op ctx) ops

and convert_op (ctx : cctx) (o : Ir.op) : unit =
  match o.name with
  | "func.return" | "scf.yield" -> () (* handled by the enclosing construct *)
  | "memref.dim" ->
      let mr = List.hd o.operands in
      let k = Option.value ~default:0 (Ir.int_attr o "index") in
      let dims = Types.dims mr.vty in
      let d = List.nth dims k in
      let e =
        match d with
        | Types.Static n -> Expr.int n
        | Types.SymDim e -> e
        | Types.Dynamic -> err "memref.dim of unconverted dynamic dimension"
      in
      set_kind ctx (Ir.result o) (KSym e)
  | "memref.alloc" | "memref.alloca" ->
      let res = Ir.result o in
      let name =
        if String.equal res.hint "" then
          Dcir_support.Id_gen.fresh ctx.gen "_tmp"
        else Dcir_support.Id_gen.fresh ctx.gen ("_" ^ res.hint)
      in
      let elem = Types.elem_type res.vty in
      let dims = convert_dims ctx (Types.dims res.vty) o.operands in
      let storage =
        if String.equal o.name "memref.alloca" then "stack" else "heap"
      in
      let in_loop = ctx.loop_depth > 0 in
      let alloc_label = fresh_label ctx "alloc" in
      let is_heap = String.equal storage "heap" in
      ignore
        (declare_container ctx ~transient:true ~storage
           ~alloc_in_loop:in_loop
           ~alloc_state:(if is_heap then alloc_label else "")
           ~name
           (Types.SdfgArray (elem, dims)));
      set_kind ctx res (KArray name);
      if is_heap then
        (* The (empty) allocation state charges the malloc cost when first
           reached — and on every execution while [alloc_in_loop] holds,
           until the hoisting pass clears it (§6.3). *)
        seq_state ctx alloc_label []
  | "memref.dealloc" -> () (* lifetime is implicit in the SDFG (§3.2) *)
  | "memref.load" ->
      let mr, idxs = Memref_d.load_parts o in
      let arr_name =
        match kind_of ctx mr with
        | KArray n -> n
        | _ -> err "memref.load from non-array"
      in
      let subset = Range.of_indices (List.map (index_expr ctx) idxs) in
      let res = Ir.result o in
      let res_name, res_container = fresh_scalar ctx ~prefix:"v" res.vty in
      set_kind ctx res (KScalar res_name);
      let arr = Hashtbl.find ctx.containers arr_name in
      let ld = Sdfg_d.load ~subset arr [] in
      let st = Sdfg_d.store ~subset:[] (Ir.result ld) res_container [] in
      seq_state ctx (fresh_label ctx "load") [ ld; st ]
  | "memref.store" ->
      let v, mr, idxs = Memref_d.store_parts o in
      let arr_name =
        match kind_of ctx mr with
        | KArray n -> n
        | _ -> err "memref.store to non-array"
      in
      let subset = Range.of_indices (List.map (index_expr ctx) idxs) in
      let arr = Hashtbl.find ctx.containers arr_name in
      let ops =
        match kind_of ctx v with
        | KScalar name ->
            let src = Hashtbl.find ctx.containers name in
            let ld = Sdfg_d.load ~subset:[] src [] in
            [ ld; Sdfg_d.store ~subset (Ir.result ld) arr [] ]
        | KSym e ->
            (* Materialize the symbolic value through a tasklet. *)
            let t =
              Sdfg_d.tasklet ~inputs:[] ~result_tys:[ Types.elem_type mr.vty ]
                (fun _ ->
                  let s = Sdfg_d.sym e in
                  [ s; Sdfg_d.return_ [ Ir.result s ] ])
            in
            [ t; Sdfg_d.store ~subset (Ir.result t) arr [] ]
        | KArray _ -> err "storing an array value is not supported"
      in
      seq_state ctx (fresh_label ctx "store") ops
  | "scf.for" -> convert_for ctx o
  | "scf.if" -> convert_if ctx o
  | "func.call" ->
      err "func.call reached the converter; run inlining first (§4)"
  | name
    when (String.length name > 6 && String.equal (String.sub name 0 6) "arith.")
         || Math_d.is_math_op name -> (
      (* Pure symbolic integer arithmetic folds without a container. *)
      let all_syms =
        o.operands <> []
        && List.for_all
             (fun v -> match kind_of ctx v with KSym _ -> true | _ -> false)
             o.operands
      in
      let sym_fold () : Expr.t option =
        let e v =
          match kind_of ctx v with KSym e -> e | _ -> assert false
        in
        match (o.name, o.operands) with
        | "arith.addi", [ a; b ] -> Some (Expr.add (e a) (e b))
        | "arith.subi", [ a; b ] -> Some (Expr.sub (e a) (e b))
        | "arith.muli", [ a; b ] -> Some (Expr.mul (e a) (e b))
        | "arith.divsi", [ a; b ] -> Some (Expr.div (e a) (e b))
        | "arith.remsi", [ a; b ] -> Some (Expr.modulo (e a) (e b))
        | "arith.maxsi", [ a; b ] -> Some (Expr.max_ (e a) (e b))
        | "arith.minsi", [ a; b ] -> Some (Expr.min_ (e a) (e b))
        | "arith.index_cast", [ a ] -> Some (e a)
        | _ -> None
      in
      match (all_syms, if all_syms then sym_fold () else None) with
      | true, Some e -> set_kind ctx (Ir.result o) (KSym e)
      | _ ->
          if String.equal o.name "arith.constant" then begin
            (* Constants become scalar containers, to be promoted by
               scalar-to-symbol (§6.1, as in Fig 5's _const). *)
            convert_compute ctx o
          end
          else convert_compute ctx o)
  | name -> err "cannot convert operation %s to the sdfg dialect" name

and convert_for (ctx : cctx) (o : Ir.op) : unit =
  let lb, ub, step = Scf_d.loop_bounds o in
  let body = Scf_d.loop_body o in
  let iv, iter_args =
    match body.rargs with
    | iv :: rest -> (iv, rest)
    | [] -> err "scf.for without induction argument"
  in
  let iter_inits = Scf_d.loop_iter_inits o in
  (* Loop-carried values live in dedicated scalar containers. *)
  let carried =
    List.map
      (fun (arg : Ir.value) ->
        let name, _ = fresh_scalar ctx ~prefix:"acc" arg.vty in
        name)
      iter_args
  in
  (* Copy initial values into the carried containers. *)
  if carried <> [] then begin
    let ops =
      List.concat
        (List.map2
           (fun init cname ->
             let dst = Hashtbl.find ctx.containers cname in
             match kind_of ctx init with
             | KScalar src_name ->
                 let src = Hashtbl.find ctx.containers src_name in
                 let ld = Sdfg_d.load ~subset:[] src [] in
                 [ ld; Sdfg_d.store ~subset:[] (Ir.result ld) dst [] ]
             | KSym e ->
                 let t =
                   Sdfg_d.tasklet ~inputs:[] ~result_tys:[ init.vty ] (fun _ ->
                       let s = Sdfg_d.sym e in
                       [ s; Sdfg_d.return_ [ Ir.result s ] ])
                 in
                 [ t; Sdfg_d.store ~subset:[] (Ir.result t) dst [] ]
             | KArray _ -> err "array-valued iter_args are not supported")
           iter_inits carried)
    in
    seq_state ctx (fresh_label ctx "loop_init") ops
  end;
  (* Induction symbol and guard. *)
  let iv_sym =
    Dcir_support.Id_gen.fresh ctx.gen
      (if String.equal iv.hint "" then "i" else iv.hint)
  in
  set_kind ctx iv (KSym (Expr.sym iv_sym));
  List.iter2
    (fun (arg : Ir.value) cname -> set_kind ctx arg (KScalar cname))
    iter_args carried;
  let lb_e = index_expr ctx lb
  and ub_e = index_expr ctx ub
  and step_e = index_expr ctx step in
  let guard = fresh_label ctx "guard" in
  push_state ctx guard [];
  push_edge ctx ~src:ctx.tail ~dst:guard ~assign:[ (iv_sym, lb_e) ] ();
  (* Body entry. *)
  let body_entry = fresh_label ctx "body" in
  push_state ctx body_entry [];
  push_edge ctx ~src:guard ~dst:body_entry
    ~cond:(Bexpr.lt (Expr.sym iv_sym) ub_e)
    ();
  ctx.tail <- body_entry;
  ctx.loop_depth <- ctx.loop_depth + 1;
  convert_ops ctx body.rops;
  ctx.loop_depth <- ctx.loop_depth - 1;
  (* Yield: MLIR iter_args update is simultaneous — all yield operands are
     read before any carried container changes. Stage through fresh
     temporaries so e.g. [ym2' = ym1; ym1' = y] keeps the old ym1. *)
  (match List.rev body.rops with
  | (last : Ir.op) :: _ when String.equal last.name "scf.yield" ->
      if last.operands <> [] then begin
        let staged =
          List.map2
            (fun (fin : Ir.value) cname ->
              match kind_of ctx fin with
              | KScalar src_name when String.equal src_name cname ->
                  (`Unchanged, cname)
              | KScalar src_name ->
                  let tmp_name, tmp = fresh_scalar ctx ~prefix:"yld" fin.vty in
                  let src = Hashtbl.find ctx.containers src_name in
                  let ld = Sdfg_d.load ~subset:[] src [] in
                  (`Copy ([ ld; Sdfg_d.store ~subset:[] (Ir.result ld) tmp [] ],
                          tmp_name),
                   cname)
              | KSym e ->
                  let tmp_name, tmp = fresh_scalar ctx ~prefix:"yld" fin.vty in
                  let t =
                    Sdfg_d.tasklet ~inputs:[] ~result_tys:[ fin.vty ] (fun _ ->
                        let sy = Sdfg_d.sym e in
                        [ sy; Sdfg_d.return_ [ Ir.result sy ] ])
                  in
                  (`Copy ([ t; Sdfg_d.store ~subset:[] (Ir.result t) tmp [] ],
                          tmp_name),
                   cname)
              | KArray _ -> err "array-valued yield")
            last.operands carried
        in
        let phase1 =
          List.concat_map
            (fun (st, _) -> match st with `Copy (ops, _) -> ops | `Unchanged -> [])
            staged
        in
        let phase2 =
          List.concat_map
            (fun (st, cname) ->
              match st with
              | `Unchanged -> []
              | `Copy (_, tmp_name) ->
                  let tmp = Hashtbl.find ctx.containers tmp_name in
                  let dst = Hashtbl.find ctx.containers cname in
                  let ld = Sdfg_d.load ~subset:[] tmp [] in
                  [ ld; Sdfg_d.store ~subset:[] (Ir.result ld) dst [] ])
            staged
        in
        let ops = phase1 @ phase2 in
        if ops <> [] then seq_state ctx (fresh_label ctx "loop_latch") ops
      end
  | _ -> ());
  (* Back edge and exit. *)
  push_edge ctx ~src:ctx.tail ~dst:guard
    ~assign:[ (iv_sym, Expr.add (Expr.sym iv_sym) step_e) ]
    ();
  let exit_label = fresh_label ctx "endfor" in
  push_state ctx exit_label [];
  push_edge ctx ~src:guard ~dst:exit_label
    ~cond:(Bexpr.ge (Expr.sym iv_sym) ub_e)
    ();
  ctx.tail <- exit_label;
  (* Loop results read the carried containers. *)
  List.iter2
    (fun (res : Ir.value) cname -> set_kind ctx res (KScalar cname))
    o.results carried

and convert_if (ctx : cctx) (o : Ir.op) : unit =
  let cond_v = List.hd o.operands in
  let cond =
    match kind_of ctx cond_v with
    | KSym e -> Bexpr.ne e Expr.zero
    | KScalar name -> Bexpr.ne (Expr.sym name) Expr.zero
    | KArray _ -> err "array used as branch condition"
  in
  let then_r, else_r = Scf_d.if_regions o in
  (* Result containers written by both branches. *)
  let result_containers =
    List.map
      (fun (res : Ir.value) ->
        let name, _ = fresh_scalar ctx ~prefix:"phi" res.vty in
        set_kind ctx res (KScalar name);
        name)
      o.results
  in
  let branch_copy_ops (region : Ir.region) =
    match List.rev region.rops with
    | (last : Ir.op) :: _
      when String.equal last.name "scf.yield" && last.operands <> [] ->
        List.concat
          (List.map2
             (fun v cname ->
               let dst = Hashtbl.find ctx.containers cname in
               match kind_of ctx v with
               | KScalar src_name ->
                   let src = Hashtbl.find ctx.containers src_name in
                   let ld = Sdfg_d.load ~subset:[] src [] in
                   [ ld; Sdfg_d.store ~subset:[] (Ir.result ld) dst [] ]
               | KSym e ->
                   let t =
                     Sdfg_d.tasklet ~inputs:[] ~result_tys:[ v.Ir.vty ]
                       (fun _ ->
                         let s = Sdfg_d.sym e in
                         [ s; Sdfg_d.return_ [ Ir.result s ] ])
                   in
                   [ t; Sdfg_d.store ~subset:[] (Ir.result t) dst [] ]
               | KArray _ -> err "array-valued branch result")
             last.operands result_containers)
    | _ -> []
  in
  let fork = ctx.tail in
  let join = fresh_label ctx "endif" in
  (* Then branch. *)
  let then_entry = fresh_label ctx "then" in
  push_state ctx then_entry [];
  push_edge ctx ~src:fork ~dst:then_entry ~cond ();
  ctx.tail <- then_entry;
  convert_ops ctx then_r.rops;
  let copies = branch_copy_ops then_r in
  if copies <> [] then seq_state ctx (fresh_label ctx "then_out") copies;
  push_state ctx join [];
  push_edge ctx ~src:ctx.tail ~dst:join ();
  (* Else branch. *)
  let else_entry = fresh_label ctx "else" in
  push_state ctx else_entry [];
  push_edge ctx ~src:fork ~dst:else_entry ~cond:(Bexpr.Not cond) ();
  ctx.tail <- else_entry;
  convert_ops ctx else_r.rops;
  let copies = branch_copy_ops else_r in
  if copies <> [] then seq_state ctx (fresh_label ctx "else_out") copies;
  push_edge ctx ~src:ctx.tail ~dst:join ();
  ctx.tail <- join

(* ------------------------------------------------------------------ *)

(** Convert one function into an sdfg-dialect function. *)
let convert_func (f : Ir.func) : Ir.func =
  let body =
    match f.fbody with
    | Some b -> b
    | None -> err "cannot convert external function @%s" f.fname
  in
  let ctx =
    {
      gen = Dcir_support.Id_gen.create ();
      kinds = Hashtbl.create 64;
      containers = Hashtbl.create 32;
      allocs = [];
      body = [];
      tail = "";
      loop_depth = 0;
      symbols = [];
    }
  in
  (* Parameters: arrays become non-transient containers with symbolic sizes
     for every `?`; scalars become non-transient scalar containers. *)
  List.iter
    (fun (p : Ir.value) ->
      let pname =
        if String.equal p.hint "" then
          Dcir_support.Id_gen.fresh ctx.gen "_arg"
        else "_" ^ p.hint
      in
      match p.vty with
      | Types.MemRef (elem, dims) ->
          let sym_dims =
            List.map
              (fun (d : Types.dim) ->
                match d with
                | Types.Static n -> Types.Static n
                | Types.SymDim e -> Types.SymDim e
                | Types.Dynamic ->
                    let s = Dcir_support.Id_gen.fresh ctx.gen "s" in
                    ctx.symbols <- ctx.symbols @ [ s ];
                    Types.SymDim (Expr.sym s))
              dims
          in
          ignore
            (declare_container ctx ~transient:false ~storage:"heap"
               ~name:pname
               (Types.SdfgArray (elem, sym_dims)));
          set_kind ctx p (KArray pname)
      | t when Types.is_scalar t ->
          ignore
            (declare_container ctx ~transient:false ~storage:"register"
               ~name:pname
               (Types.SdfgArray (t, [])));
          set_kind ctx p (KScalar pname)
      | t -> err "unsupported parameter type %s" (Types.to_string t))
    f.fparams;
  let param_names =
    List.map
      (fun (p : Ir.value) ->
        match kind_of ctx p with
        | KArray n | KScalar n -> n
        | KSym _ -> assert false)
      f.fparams
  in
  (* Entry state. *)
  let entry = fresh_label ctx "init" in
  push_state ctx entry [];
  ctx.tail <- entry;
  convert_ops ctx body.rops;
  (* Return value. *)
  let fattrs =
    ref
      [
        ("sdfg.converted", Attr.ABool true);
        ("sdfg.params",
         Attr.AList (List.map (fun n -> Attr.AStr n) param_names));
      ]
  in
  (match List.rev body.rops with
  | (last : Ir.op) :: _
    when String.equal last.name "func.return" && last.operands <> [] -> (
      match kind_of ctx (List.hd last.operands) with
      | KScalar name -> fattrs := ("sdfg.return_scalar", Attr.AStr name) :: !fattrs
      | KSym e -> fattrs := ("sdfg.return_expr", Attr.AExpr e) :: !fattrs
      | KArray _ -> err "returning arrays is not supported")
  | _ -> ());
  if ctx.symbols <> [] then
    fattrs :=
      ("sdfg.symbols", Attr.AList (List.map (fun s -> Attr.AStr s) ctx.symbols))
      :: !fattrs;
  {
    Ir.fname = f.fname;
    fparams = f.fparams;
    fret = f.fret;
    fbody =
      Some
        (Ir.new_region ~args:f.fparams
           ~ops:(List.rev ctx.allocs @ List.rev ctx.body)
           ());
    fattrs = !fattrs;
  }

(** Convert a whole module: every function with a body is converted; the
    result is a new module in the sdfg dialect. *)
let convert_module (m : Ir.modul) : Ir.modul =
  let m' = Ir.new_module () in
  m'.funcs <-
    List.map (fun f -> if f.Ir.fbody = None then f else convert_func f) m.funcs;
  m'
