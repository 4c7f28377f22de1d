(** Structured pipeline telemetry — the observability substrate threaded
    through the pass drivers and interpreters.

    Two facilities:

    - {b Spans}: nested wall-clock scopes ([with_span]) recording name,
      category, duration, and arbitrary key/value args. Two sinks: a pretty
      tree report ([pp_report], the [-mlir-timing] role) and Chrome
      [trace_event] JSON ([write_trace], loadable in [about:tracing] /
      Perfetto).
    - {b Profiles}: runtime metric attribution ([Profile]) — cycles / loads /
      stores per SDFG state, tasklet, or MLIR function, filled in by the
      tree-walking interpreters (a profiled run always walks the tree) and
      rendered as a hot-spot table.

    Collection is {e disabled by default}: every hook is a cheap no-op until
    [enable] is called, so instrumented code pays nothing in normal runs.
    Spans are recorded only on the domain that called [enable].
    Timing uses [Unix.gettimeofday] (microsecond resolution wall clock — the
    finest-grained clock available without external packages; pass
    transforms run for micro- to milliseconds, well above its resolution). *)

let now_s () : float = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_start : float;  (** seconds since epoch *)
  mutable sp_end : float;
  mutable sp_args : (string * Json.t) list;
  sp_tid : int;  (** trace lane; 1 = the coordinating domain *)
  mutable sp_children : span list;  (** reverse chronological while open *)
}

let span_name (sp : span) : string = sp.sp_name
let span_children (sp : span) : span list = List.rev sp.sp_children
let span_duration_ms (sp : span) : float = (sp.sp_end -. sp.sp_start) *. 1e3

type collector = {
  mutable owner : Domain.id option;
      (** the domain that called [enable], [None] while disabled. Spans
          from any other domain (serve pool workers compile on their
          own) are dropped, as [Events] drops worker-domain output. *)
  mutable stack : span list;  (** innermost open span first *)
  mutable finished : span list;  (** completed top-level spans, reverse *)
  mutable epoch : float;  (** trace time origin *)
}

let st : collector = { owner = None; stack = []; finished = []; epoch = 0.0 }

(** Whether spans are being recorded on the calling domain. *)
let enabled () : bool =
  match st.owner with Some d -> d = Domain.self () | None -> false

let enable () : unit =
  st.owner <- Some (Domain.self ());
  if st.epoch = 0.0 then st.epoch <- now_s ()

let disable () : unit = st.owner <- None

(** Run [f] inside a named scope. When collection is disabled this is
    exactly [f ()]. The span is closed (and recorded) even if [f] raises. *)
let with_span ?(cat : string = "") ?(args : (string * Json.t) list = [])
    (name : string) (f : unit -> 'a) : 'a =
  if not (enabled ()) then f ()
  else begin
    let sp =
      {
        sp_name = name;
        sp_cat = cat;
        sp_start = now_s ();
        sp_end = 0.0;
        sp_args = args;
        sp_tid = 1;
        sp_children = [];
      }
    in
    st.stack <- sp :: st.stack;
    let finish () =
      sp.sp_end <- now_s ();
      (match st.stack with
      | top :: rest when top == sp -> st.stack <- rest
      | _ -> st.stack <- List.filter (fun s -> not (s == sp)) st.stack);
      match st.stack with
      | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
      | [] -> st.finished <- sp :: st.finished
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(** Attach args to the innermost open span (no-op when disabled or when no
    span is open) — for results only known once the scope's work is done. *)
let set_args (kvs : (string * Json.t) list) : unit =
  if enabled () then
    match st.stack with
    | sp :: _ -> sp.sp_args <- sp.sp_args @ kvs
    | [] -> ()

(** Record an already-measured scope as a child of the innermost open span
    (or as a root). For work measured off the collector's domain — e.g.
    parallel map chunks timed on worker domains and registered by the
    coordinating domain after the join, with a per-worker [tid] so the
    Chrome trace renders one lane per domain. *)
let add_complete ?(cat = "") ?(args : (string * Json.t) list = []) ?(tid = 1)
    ~(start_s : float) ~(end_s : float) (name : string) : unit =
  if enabled () then begin
    let sp =
      {
        sp_name = name;
        sp_cat = cat;
        sp_start = start_s;
        sp_end = end_s;
        sp_args = args;
        sp_tid = tid;
        sp_children = [];
      }
    in
    match st.stack with
    | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
    | [] -> st.finished <- sp :: st.finished
  end

(** Completed top-level spans, oldest first. *)
let roots () : span list = List.rev st.finished

(* ------------------------------------------------------------------ *)
(* Pretty tree report *)

let pp_span_args (ppf : Format.formatter) (args : (string * Json.t) list) :
    unit =
  List.iter
    (fun (k, v) -> Format.fprintf ppf " %s=%s" k (Json.to_string v))
    args

let pp_report (ppf : Format.formatter) () : unit =
  let line label sp =
    Format.fprintf ppf "%-44s %9.3f ms%a@." label (span_duration_ms sp)
      pp_span_args sp.sp_args
  in
  let rec pp_children prefix kids =
    let n = List.length kids in
    List.iteri
      (fun i c ->
        let is_last = i = n - 1 in
        let connector = if is_last then "`- " else "|- " in
        line (prefix ^ connector ^ c.sp_name) c;
        pp_children (prefix ^ if is_last then "   " else "|  ")
          (span_children c))
      kids
  in
  match roots () with
  | [] -> Format.fprintf ppf "(no telemetry collected)@."
  | rs ->
      List.iter
        (fun sp ->
          line sp.sp_name sp;
          pp_children "" (span_children sp))
        rs

(* ------------------------------------------------------------------ *)
(* Chrome trace_event sink *)

let rec span_events (sp : span) : Json.t list =
  let micros t = (t -. st.epoch) *. 1e6 in
  let ev =
    Json.Obj
      [
        ("name", Json.Str sp.sp_name);
        ("cat", Json.Str (if sp.sp_cat = "" then "dcir" else sp.sp_cat));
        ("ph", Json.Str "X");
        ("ts", Json.Float (micros sp.sp_start));
        ("dur", Json.Float ((sp.sp_end -. sp.sp_start) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int sp.sp_tid);
        ("args", Json.Obj sp.sp_args);
      ]
  in
  ev :: List.concat_map span_events (span_children sp)

let trace_json () : Json.t =
  Json.Obj
    [
      ("traceEvents", Json.List (List.concat_map span_events (roots ())));
      ("displayTimeUnit", Json.Str "ms");
    ]

let trace_to_string () : string = Json.to_string (trace_json ())

let write_trace (path : string) : unit =
  let oc = open_out path in
  output_string oc (trace_to_string ());
  output_char oc '\n';
  close_out oc

(** Restore a fully fresh collector: span state cleared and the trace
    epoch re-anchored. *)
let reset () : unit =
  st.stack <- [];
  st.finished <- [];
  st.epoch <- now_s ()

(** Trace time origin (seconds since Unix epoch); re-anchored by [reset]. *)
let epoch_s () : float = st.epoch

(* ------------------------------------------------------------------ *)
(* Runtime profiles *)

module Profile = struct
  type entry = {
    mutable hits : int;
    mutable cycles : float;
    mutable loads : int;
    mutable stores : int;
  }

  type t = { tbl : (string * string, entry) Hashtbl.t }
  (** keyed by (kind, name): e.g. ("state", "S3"), ("tasklet", "t12"),
      ("func", "gemm") *)

  let create () : t = { tbl = Hashtbl.create 32 }

  let record ?(hits = 1) (p : t) ~(kind : string) ~(name : string)
      ~(cycles : float) ~(loads : int) ~(stores : int) : unit =
    match Hashtbl.find_opt p.tbl (kind, name) with
    | Some e ->
        e.hits <- e.hits + hits;
        e.cycles <- e.cycles +. cycles;
        e.loads <- e.loads + loads;
        e.stores <- e.stores + stores
    | None ->
        Hashtbl.replace p.tbl (kind, name) { hits; cycles; loads; stores }

  let kinds (p : t) : string list =
    Hashtbl.fold
      (fun (kind, _) _ acc -> if List.mem kind acc then acc else kind :: acc)
      p.tbl []
    |> List.sort compare

  (** Entries of one kind, hottest (most cycles) first. *)
  let entries (p : t) ~(kind : string) : (string * entry) list =
    Hashtbl.fold
      (fun (k, name) e acc -> if k = kind then (name, e) :: acc else acc)
      p.tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b.cycles a.cycles)

  let total_cycles (p : t) ~(kind : string) : float =
    List.fold_left (fun acc (_, e) -> acc +. e.cycles) 0.0 (entries p ~kind)

  (** Hot-spot table per kind. For kinds whose scopes partition execution
      (SDFG states) the %% column sums to 100; nested kinds (MLIR functions,
      tasklets inside states) report inclusive time. *)
  let pp (ppf : Format.formatter) (p : t) : unit =
    List.iter
      (fun kind ->
        let total = total_cycles p ~kind in
        Format.fprintf ppf "%s attribution (%.0f cycles total):@." kind total;
        Format.fprintf ppf "  %-24s %10s %14s %7s %12s %12s@." kind "hits"
          "cycles" "%" "loads" "stores";
        List.iter
          (fun (name, e) ->
            Format.fprintf ppf "  %-24s %10d %14.0f %6.1f%% %12d %12d@." name
              e.hits e.cycles
              (if total > 0.0 then 100.0 *. e.cycles /. total else 0.0)
              e.loads e.stores)
          (entries p ~kind))
      (kinds p)
end
