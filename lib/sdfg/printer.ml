(** Textual dump of an SDFG — the debugging/teaching view used by examples
    and the CLI ([dcir compile --emit sdfg]), and the text a product's
    digest is taken over.

    Nodes print as [#<k>], where [k] counts the printed SDFG's nodes in
    order of first appearance, over node and edge lines alike; opaque
    tasklet units name their values as {!Dcir_mlir.Printer} does. The
    text is therefore a function of the SDFG alone, never of the
    process-wide ids its nodes were minted with. *)

open Dcir_symbolic

let pp_dtype ppf = function
  | Sdfg.DInt -> Fmt.string ppf "int"
  | Sdfg.DFloat -> Fmt.string ppf "float"

let pp_storage ppf = function
  | Sdfg.Heap -> Fmt.string ppf "heap"
  | Sdfg.Stack -> Fmt.string ppf "stack"
  | Sdfg.Register -> Fmt.string ppf "register"

let pp_container ppf (c : Sdfg.container) =
  Fmt.pf ppf "%s%s: %a%a @@%a%s" c.cname
    (if c.transient then " (transient)" else "")
    pp_dtype c.dtype
    (fun ppf shape ->
      if shape <> [] then
        Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any ", ") Expr.pp) shape)
    c.shape pp_storage c.storage
    (if c.alloc_in_loop then " (alloc in loop)" else "")

let pp_memlet ppf (m : Sdfg.memlet) =
  Fmt.pf ppf "%s%a%s" m.data Range.pp m.subset
    (match m.wcr with
    | Some w -> " (wcr: " ^ Sdfg.wcr_to_string w ^ ")"
    | None -> "")

(* Printed node numbers of one SDFG, by first appearance. *)
type numbers = { seen : (int, int) Hashtbl.t; mutable next : int }

let node_label (nums : numbers) (n : Sdfg.node) : string =
  let k =
    match Hashtbl.find_opt nums.seen n.nid with
    | Some k -> k
    | None ->
        let k = nums.next in
        nums.next <- k + 1;
        Hashtbl.add nums.seen n.nid k;
        k
  in
  match n.kind with
  | Sdfg.Access name -> Printf.sprintf "access(%s)#%d" name k
  | Sdfg.TaskletN t -> Printf.sprintf "tasklet(%s)#%d" t.tname k
  | Sdfg.MapN mn ->
      Printf.sprintf "map[%s]#%d" (String.concat "," mn.m_params) k

let rec pp_graph nums ~indent ppf (g : Sdfg.graph) =
  List.iter
    (fun (n : Sdfg.node) ->
      match n.kind with
      | Sdfg.TaskletN { code = Native assigns; _ } ->
          Fmt.pf ppf "%s%s:@." indent (node_label nums n);
          List.iter
            (fun (out, e) ->
              Fmt.pf ppf "%s    %s = %a@." indent out Texpr.pp e)
            assigns
      | Sdfg.TaskletN { code = Opaque f; _ } ->
          (* Print the full unit body: the printed SDFG is what a digest
             identifies, so two tasklets may look alike only when they
             compute the same thing — the unit's name alone says nothing
             about semantics. *)
          Fmt.pf ppf "%s%s: <opaque unit @%s>@." indent (node_label nums n)
            f.Dcir_mlir.Ir.fname;
          List.iter
            (fun line -> Fmt.pf ppf "%s    | %s@." indent line)
            (String.split_on_char '\n'
               (String.trim (Dcir_mlir.Printer.func_to_string f)))
      | Sdfg.MapN mn ->
          Fmt.pf ppf "%s%s ranges %a:@." indent (node_label nums n) Range.pp
            mn.m_ranges;
          pp_graph nums ~indent:(indent ^ "  ") ppf mn.m_body
      | Sdfg.Access _ -> ())
    (Sdfg.nodes g);
  List.iter
    (fun (e : Sdfg.edge) ->
      let conn = function Some c -> ":" ^ c | None -> "" in
      Fmt.pf ppf "%s%s%s -> %s%s%s@." indent
        (node_label nums (Sdfg.node_by_id g e.e_src))
        (conn e.e_src_conn)
        (node_label nums (Sdfg.node_by_id g e.e_dst))
        (conn e.e_dst_conn)
        (match e.e_memlet with
        | Some m -> Fmt.str "  [%a]" pp_memlet m
        | None -> "  [dep]"))
    (Sdfg.edges g)

let pp ppf (sdfg : Sdfg.t) =
  Fmt.pf ppf "sdfg %s (args: %s; symbols: %s)@." sdfg.name
    (String.concat ", " (Sdfg.arg_order sdfg))
    (String.concat ", " sdfg.arg_symbols);
  let containers =
    Hashtbl.fold (fun _ c acc -> c :: acc) sdfg.containers []
    |> List.sort (fun (a : Sdfg.container) b -> compare a.cname b.cname)
  in
  List.iter (fun c -> Fmt.pf ppf "  container %a@." pp_container c) containers;
  let nums = { seen = Hashtbl.create 64; next = 0 } in
  List.iter
    (fun (s : Sdfg.state) ->
      Fmt.pf ppf "  state %s%s:@." s.s_label
        (if String.equal s.s_label sdfg.start_state then " (start)" else "");
      pp_graph nums ~indent:"    " ppf s.s_graph)
    (Sdfg.states sdfg);
  List.iter
    (fun (e : Sdfg.istate_edge) ->
      Fmt.pf ppf "  edge %s -> %s" e.ie_src e.ie_dst;
      (match e.ie_cond with
      | Bexpr.Bool true -> ()
      | c -> Fmt.pf ppf " if (%a)" Bexpr.pp c);
      if e.ie_assign <> [] then
        Fmt.pf ppf " {%a}"
          (Fmt.list ~sep:(Fmt.any "; ") (fun ppf (s, ex) ->
               Fmt.pf ppf "%s = %a" s Expr.pp ex))
          e.ie_assign;
      Fmt.pf ppf "@.")
    (Sdfg.istate_edges sdfg);
  (match (sdfg.return_scalar, sdfg.return_expr) with
  | Some c, _ -> Fmt.pf ppf "  return %s@." c
  | None, Some e -> Fmt.pf ppf "  return %a@." Expr.pp e
  | None, None -> ())

let to_string (sdfg : Sdfg.t) : string = Fmt.str "%a" pp sdfg
