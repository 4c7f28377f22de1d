(** The MLIR-to-SDFG translator (§5.2 of the paper).

    Two passes over an sdfg-dialect function:
    1. collect symbol, container, and scope metadata ([sdfg.alloc] ops,
       state labels, the function's size symbols);
    2. create and connect the graph: per state, loads/stores become access
       nodes and memlet-carrying edges, tasklets become tasklet nodes.

    Tasklet {e raising}: each MLIR tasklet region is parsed into the native
    tasklet language ({!Dcir_sdfg.Texpr}) when it consists of arithmetic,
    math calls, [sdfg.sym] and element loads — enabling data-centric
    analysis and inlined code generation. Regions with control flow or other
    unsupported ops are kept as {e MLIR tasklets} ([Opaque]), compiled as
    separate units with a per-invocation overhead. *)

open Dcir_mlir
open Dcir_sdfg
open Dcir_symbolic

module Diag = Dcir_support.Diagnostics

let err fmt = Diag.fail ~code:"E-TRANSLATE" ~phase:Diag.Translate fmt

(* ------------------------------------------------------------------ *)
(* Tasklet raising *)

(* Try to express a tasklet region as native code. Region args map to input
   connectors in order. *)
let raise_tasklet_region (region : Ir.region) ~(conn_names : string list) :
    Texpr.code option =
  let conn_of_arg : (int, string) Hashtbl.t = Hashtbl.create 8 in
  (try
     List.iter2
       (fun (a : Ir.value) c -> Hashtbl.replace conn_of_arg a.vid c)
       region.rargs conn_names
   with Invalid_argument _ -> ());
  let exprs : (int, Texpr.t) Hashtbl.t = Hashtbl.create 16 in
  let lookup (v : Ir.value) : Texpr.t option =
    match Hashtbl.find_opt exprs v.vid with
    | Some e -> Some e
    | None -> (
        match Hashtbl.find_opt conn_of_arg v.vid with
        | Some c -> Some (Texpr.TIn c)
        | None -> None)
  in
  let exception Unraisable in
  let get v = match lookup v with Some e -> e | None -> raise Unraisable in
  try
    let result = ref None in
    List.iter
      (fun (o : Ir.op) ->
        let bind e = Hashtbl.replace exprs (Ir.result o).vid e in
        match o.name with
        | "arith.constant" -> (
            match Ir.attr o "value" with
            | Some (Attr.AInt n) -> bind (Texpr.TInt n)
            | Some (Attr.AFloat f) -> bind (Texpr.TFloat f)
            | _ -> raise Unraisable)
        | "sdfg.sym" -> (
            match Sdfg_d.sym_expr o with
            | Some e -> bind (Texpr.of_expr e)
            | None -> raise Unraisable)
        | "arith.addi" | "arith.addf" ->
            bind (Texpr.TBin (Texpr.BAdd, get (List.nth o.operands 0), get (List.nth o.operands 1)))
        | "arith.subi" | "arith.subf" ->
            bind (Texpr.TBin (Texpr.BSub, get (List.nth o.operands 0), get (List.nth o.operands 1)))
        | "arith.muli" | "arith.mulf" ->
            bind (Texpr.TBin (Texpr.BMul, get (List.nth o.operands 0), get (List.nth o.operands 1)))
        | "arith.divsi" | "arith.divf" ->
            bind (Texpr.TBin (Texpr.BDiv, get (List.nth o.operands 0), get (List.nth o.operands 1)))
        | "arith.remsi" ->
            bind (Texpr.TBin (Texpr.BMod, get (List.nth o.operands 0), get (List.nth o.operands 1)))
        | "arith.maxsi" | "arith.maxf" ->
            bind (Texpr.TBin (Texpr.BMax, get (List.nth o.operands 0), get (List.nth o.operands 1)))
        | "arith.minsi" | "arith.minf" ->
            bind (Texpr.TBin (Texpr.BMin, get (List.nth o.operands 0), get (List.nth o.operands 1)))
        | "arith.andi" ->
            (* On i1 values, logical and = min; good enough for raised code. *)
            bind (Texpr.TBin (Texpr.BMin, get (List.nth o.operands 0), get (List.nth o.operands 1)))
        | "arith.ori" ->
            bind (Texpr.TBin (Texpr.BMax, get (List.nth o.operands 0), get (List.nth o.operands 1)))
        | "arith.xori" ->
            (* i1 xor: |a - b| *)
            bind
              (Texpr.TCmp (Texpr.CNe, get (List.nth o.operands 0), get (List.nth o.operands 1)))
        | "arith.negf" -> bind (Texpr.TUn (`Neg, get (List.hd o.operands)))
        | "arith.cmpi" | "arith.cmpf" ->
            let pred = Option.value ~default:"eq" (Ir.str_attr o "predicate") in
            let op =
              match pred with
              | "eq" | "oeq" | "ueq" -> Texpr.CEq
              | "ne" | "one" | "une" -> Texpr.CNe
              | "slt" | "ult" | "olt" -> Texpr.CLt
              | "sle" | "ule" | "ole" -> Texpr.CLe
              | "sgt" | "ugt" | "ogt" -> Texpr.CGt
              | "sge" | "uge" | "oge" -> Texpr.CGe
              | _ -> raise Unraisable
            in
            bind (Texpr.TCmp (op, get (List.nth o.operands 0), get (List.nth o.operands 1)))
        | "arith.select" ->
            bind
              (Texpr.TSelect
                 ( get (List.nth o.operands 0),
                   get (List.nth o.operands 1),
                   get (List.nth o.operands 2) ))
        | "arith.sitofp" -> bind (Texpr.TUn (`ToFloat, get (List.hd o.operands)))
        | "arith.fptosi" -> bind (Texpr.TUn (`ToInt, get (List.hd o.operands)))
        | "arith.index_cast" | "arith.extf" | "arith.truncf" ->
            bind (get (List.hd o.operands))
        | name when Math_d.is_math_op name -> (
            match Math_d.of_op name with
            | Some f -> bind (Texpr.TCall (f.c_name, List.map get o.operands))
            | None -> raise Unraisable)
        | "memref.load" ->
            (* Element access into a memref argument: indirect index. *)
            let mr, idxs = Memref_d.load_parts o in
            let conn =
              match Hashtbl.find_opt conn_of_arg mr.vid with
              | Some c -> c
              | None -> raise Unraisable
            in
            bind (Texpr.TIndex (conn, List.map get idxs))
        | "sdfg.return" ->
            result :=
              Some (List.mapi (fun i v -> (Printf.sprintf "_out%d" i, get v)) o.operands)
        | _ -> raise Unraisable)
      region.rops;
    !result
  with Unraisable -> None

(* Fallback: wrap the region as a standalone function (MLIR tasklet). *)
let opaque_of_region (name : string) (region : Ir.region)
    (result_tys : Types.t list) : Ir.func =
  let cloned, _ = Ir.clone_region Ir.IntMap.empty region in
  (* Replace the trailing sdfg.return with func.return. *)
  let rec fix = function
    | [] -> []
    | [ (last : Ir.op) ] when String.equal last.name "sdfg.return" ->
        [ Ir.new_op "func.return" ~operands:last.operands ]
    | o :: rest -> o :: fix rest
  in
  cloned.rops <- fix cloned.rops;
  {
    Ir.fname = name;
    fparams = cloned.rargs;
    fret = result_tys;
    fbody = Some cloned;
    fattrs = [];
  }

(* ------------------------------------------------------------------ *)
(* Translation *)

type tctx = {
  sdfg : Sdfg.t;
  containers_by_vid : (int, string) Hashtbl.t;
  mutable tasklet_count : int;
}

let dim_to_expr (d : Types.dim) : Expr.t =
  match d with
  | Types.Static n -> Expr.int n
  | Types.SymDim e -> e
  | Types.Dynamic -> err "untranslated dynamic dimension"

(* Pass 1: containers and metadata. *)
let collect_alloc (ctx : tctx) (o : Ir.op) : unit =
  let res = Ir.result o in
  let name =
    Option.value ~default:"" (Ir.str_attr o Sdfg_d.k_container)
  in
  let transient =
    match Ir.attr o Sdfg_d.k_transient with
    | Some (Attr.ABool b) -> b
    | _ -> true
  in
  let storage =
    match Ir.str_attr o "storage" with
    | Some "heap" -> Sdfg.Heap
    | Some "stack" -> Sdfg.Stack
    | Some "register" -> Sdfg.Register
    | _ -> if Types.dims res.vty = [] then Sdfg.Register else Sdfg.Heap
  in
  let dtype =
    if Types.is_float (Types.elem_type res.vty) then Sdfg.DFloat else Sdfg.DInt
  in
  let shape = List.map dim_to_expr (Types.dims res.vty) in
  let alloc_in_loop =
    match Ir.attr o "alloc_in_loop" with Some (Attr.ABool b) -> b | _ -> false
  in
  let c =
    Sdfg.add_container ctx.sdfg ~transient ~storage ~alloc_in_loop ~dtype
      ~shape name
  in
  (match Ir.str_attr o "alloc_state" with
  | Some s -> c.alloc_state <- Some s
  | None -> ());
  Hashtbl.replace ctx.containers_by_vid res.vid name

(* Pass 2: one state's dataflow. *)
let translate_state (ctx : tctx) (label : string) (region : Ir.region) : unit
    =
  let st = Sdfg.add_state ctx.sdfg label in
  let g = st.s_graph in
  (* Per-container read/write access nodes within this state. Reads and
     writes use separate nodes so the graph stays acyclic for
     read-modify-write patterns. *)
  let read_nodes : (string, Sdfg.node) Hashtbl.t = Hashtbl.create 8 in
  let write_nodes : (string, Sdfg.node) Hashtbl.t = Hashtbl.create 8 in
  (* Hazard ordering between *event* nodes (the nodes whose visit performs
     the movement: tasklets and copy-source access nodes), in op order:
     write-after-read, read-after-write and write-after-write on the same
     container get dependency edges. *)
  let last_writer : (string, Sdfg.node) Hashtbl.t = Hashtbl.create 8 in
  let readers_since : (string, Sdfg.node list) Hashtbl.t = Hashtbl.create 8 in
  let dep_edge (a : Sdfg.node) (b : Sdfg.node) =
    if a.nid <> b.nid
       && not
            (List.exists
               (fun (e : Sdfg.edge) ->
                 e.e_src = a.nid && e.e_dst = b.nid)
               (Sdfg.edges g))
    then ignore (Sdfg.add_edge g a b)
  in
  let note_read (c : string) (n : Sdfg.node) =
    (match Hashtbl.find_opt last_writer c with
    | Some w -> dep_edge w n
    | None -> ());
    Hashtbl.replace readers_since c
      (n :: Option.value ~default:[] (Hashtbl.find_opt readers_since c))
  in
  let note_write (c : string) (n : Sdfg.node) =
    (match Hashtbl.find_opt last_writer c with
    | Some w -> dep_edge w n
    | None -> ());
    List.iter (fun r -> dep_edge r n)
      (Option.value ~default:[] (Hashtbl.find_opt readers_since c));
    Hashtbl.replace last_writer c n;
    Hashtbl.replace readers_since c []
  in
  let read_node name =
    match Hashtbl.find_opt read_nodes name with
    | Some n -> n
    | None ->
        let n = Sdfg.add_node g (Sdfg.Access name) in
        Hashtbl.replace read_nodes name n;
        n
  in
  let write_node name =
    match Hashtbl.find_opt write_nodes name with
    | Some n -> n
    | None ->
        let n = Sdfg.add_node g (Sdfg.Access name) in
        Hashtbl.replace write_nodes name n;
        n
  in
  (* Values produced inside the state: load results and tasklet results. *)
  let sources : (int, [ `Load of string * Range.t | `TaskletOut of Sdfg.node * string ]) Hashtbl.t =
    Hashtbl.create 16
  in
  let container_of (v : Ir.value) : string =
    match Hashtbl.find_opt ctx.containers_by_vid v.vid with
    | Some n -> n
    | None -> err "state %s: value %s is not a container" label (Dcir_mlir.Printer.value_name v)
  in
  List.iter
    (fun (o : Ir.op) ->
      match o.name with
      | "sdfg.load" ->
          let arr = List.hd o.operands in
          let subset =
            match Ir.attr o Sdfg_d.k_subset with
            | Some (Attr.ARange r) -> r
            | _ -> []
          in
          Hashtbl.replace sources (Ir.result o).vid
            (`Load (container_of arr, subset))
      | "sdfg.tasklet" ->
          ctx.tasklet_count <- ctx.tasklet_count + 1;
          let tname = Printf.sprintf "t%d" ctx.tasklet_count in
          let region_t = List.hd o.regions in
          let conn_names =
            List.mapi (fun i _ -> Printf.sprintf "_in%d" i) o.operands
          in
          let out_names =
            List.mapi (fun i _ -> Printf.sprintf "_out%d" i) o.results
          in
          let code =
            match raise_tasklet_region region_t ~conn_names with
            | Some assigns -> Sdfg.Native assigns
            | None ->
                Sdfg.Opaque
                  (opaque_of_region
                     (Printf.sprintf "%s_%s" ctx.sdfg.name tname)
                     region_t
                     (List.map (fun (r : Ir.value) -> r.vty) o.results))
          in
          let overhead = match code with Sdfg.Opaque _ -> 20.0 | _ -> 0.0 in
          let t =
            {
              Sdfg.tname;
              t_inputs = conn_names;
              t_outputs = out_names;
              t_syms = [];
              code;
              t_overhead = overhead;
            }
          in
          let tn = Sdfg.add_node g (Sdfg.TaskletN t) in
          (* Wire inputs. *)
          List.iteri
            (fun i (v : Ir.value) ->
              let conn = Printf.sprintf "_in%d" i in
              match Hashtbl.find_opt sources v.vid with
              | Some (`Load (data, subset)) ->
                  ignore
                    (Sdfg.add_edge g ~dst_conn:conn
                       ~memlet:{ Sdfg.data; subset; wcr = None; other = None }
                       (read_node data) tn);
                  note_read data tn
              | Some (`TaskletOut (src_node, src_conn)) ->
                  (* Direct tasklet-to-tasklet chaining via a scalar is not
                     generated by the converter; route conservatively. *)
                  ignore
                    (Sdfg.add_edge g ~src_conn ~dst_conn:conn src_node tn)
              | None -> (
                  (* Whole-container operand (indirect access). *)
                  match Hashtbl.find_opt ctx.containers_by_vid v.vid with
                  | Some data ->
                      let c = Sdfg.container ctx.sdfg data in
                      let subset = List.map Range.full c.shape in
                      ignore
                        (Sdfg.add_edge g ~dst_conn:conn
                           ~memlet:{ Sdfg.data; subset; wcr = None; other = None }
                           (read_node data) tn);
                      note_read data tn
                  | None ->
                      err "state %s: tasklet operand %s has no source" label
                        (Dcir_mlir.Printer.value_name v)))
            o.operands;
          List.iteri
            (fun i (r : Ir.value) ->
              Hashtbl.replace sources r.vid
                (`TaskletOut (tn, Printf.sprintf "_out%d" i)))
            o.results
      | "sdfg.store" ->
          let v = List.hd o.operands in
          let arr = List.nth o.operands 1 in
          let data = container_of arr in
          let subset =
            match Ir.attr o Sdfg_d.k_subset with
            | Some (Attr.ARange r) -> r
            | _ -> []
          in
          let wcr = Option.bind (Ir.str_attr o Sdfg_d.k_wcr) Sdfg.wcr_of_string in
          let memlet = { Sdfg.data; subset; wcr; other = None } in
          (match Hashtbl.find_opt sources v.vid with
          | Some (`TaskletOut (tn, conn)) ->
              ignore (Sdfg.add_edge g ~src_conn:conn ~memlet tn (write_node data));
              note_write data tn
          | Some (`Load (src_data, src_subset)) ->
              (* load+store = copy edge between access nodes; the memlet
                 carries both subsets. The event node is the copy source. *)
              let src_node = read_node src_data in
              ignore
                (Sdfg.add_edge g
                   ~memlet:
                     { Sdfg.data = src_data; subset = src_subset; wcr;
                       other = Some subset }
                   src_node
                   (write_node data));
              note_read src_data src_node;
              note_write data src_node
          | None -> err "state %s: store of unknown value" label)
      | name -> err "state %s: unexpected op %s in state body" label name)
    region.rops;
  ignore write_nodes

(** Translate one sdfg-dialect function into an SDFG. *)
let translate_func (f : Ir.func) : Sdfg.t =
  let body =
    match f.fbody with Some b -> b | None -> err "external function"
  in
  let sdfg = Sdfg.create f.fname in
  let ctx =
    { sdfg; containers_by_vid = Hashtbl.create 32; tasklet_count = 0 }
  in
  (* Pass 1: metadata. *)
  List.iter
    (fun (o : Ir.op) ->
      if String.equal o.Ir.name "sdfg.alloc" then collect_alloc ctx o)
    body.rops;
  (match List.assoc_opt "sdfg.params" f.fattrs with
  | Some (Attr.AList l) ->
      sdfg.param_order <-
        List.filter_map (function Attr.AStr s -> Some s | _ -> None) l
  | _ -> ());
  (match List.assoc_opt "sdfg.symbols" f.fattrs with
  | Some (Attr.AList l) ->
      sdfg.arg_symbols <-
        List.filter_map (function Attr.AStr s -> Some s | _ -> None) l
  | _ -> ());
  (* Pass 2: graph. *)
  List.iter
    (fun (o : Ir.op) ->
      match o.Ir.name with
      | "sdfg.alloc" -> ()
      | "sdfg.state" ->
          let label =
            Option.value ~default:"" (Ir.str_attr o Sdfg_d.k_state_id)
          in
          translate_state ctx label (List.hd o.regions)
      | "sdfg.edge" -> (
          match Sdfg_d.edge_parts o with
          | Some (src, dst, cond, assigns) ->
              Sdfg.add_istate_edge sdfg ~cond ~assign:assigns ~src ~dst ()
          | None -> err "malformed sdfg.edge")
      | name -> err "unexpected top-level op %s in converted function" name)
    body.rops;
  (match List.assoc_opt "sdfg.return_scalar" f.fattrs with
  | Some (Attr.AStr name) -> sdfg.return_scalar <- Some name
  | _ -> ());
  (match List.assoc_opt "sdfg.return_expr" f.fattrs with
  | Some (Attr.AExpr e) -> sdfg.return_expr <- Some e
  | _ -> ());
  sdfg

(** Translate the first converted function of a module. *)
let translate_module (m : Ir.modul) ~(entry : string) : Sdfg.t =
  match Ir.find_func m entry with
  | Some f when List.mem_assoc "sdfg.converted" f.fattrs -> translate_func f
  | Some _ -> err "function @%s was not converted to the sdfg dialect" entry
  | None -> err "no function @%s" entry
