(** In-memory spans for the ledger's traced run.

    A span records one call into a layer's public function: its name (the
    layer), the op it belongs to, its parent span, its wall-clock interval
    and the minor-heap words the calling domain allocated inside it. Spans
    are kept in memory while the traced rep runs and turned into per-layer
    self times and a Chrome [trace_event] document at the end. Counts that
    only the caller can see (pass rounds, nodes, steps) are accumulated
    next to the spans under metric names.

    Tracing is off unless {!enable} was called; {!span} is then exactly
    [f ()] and {!count} does nothing, so the untraced reps run the same
    code without the bookkeeping. *)

module Json = Dcir_obs.Json

type span = {
  sp_name : string;
  sp_op : int;  (** op id shared by every span of one op; -1 outside ops *)
  sp_parent : int;  (** index of the enclosing span; -1 for a root *)
  sp_start : float;
  mutable sp_stop : float;
  mutable sp_alloc : float;  (** minor words, children included *)
}

let on = ref false
let spans : span list ref = ref []  (* newest first *)
let n_spans = ref 0
let open_stack : (int * span) list ref = ref []  (* innermost first *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let enable () = on := true
let disable () = on := false

let reset () =
  spans := [];
  n_spans := 0;
  open_stack := [];
  Hashtbl.reset counts

let current_op () =
  match !open_stack with (_, sp) :: _ -> sp.sp_op | [] -> -1

(** Run [f] inside a span named [name]. [op] starts a new op; without it
    the span joins the op of the enclosing span. The span is closed even
    when [f] raises. *)
let span ?op (name : string) (f : unit -> 'a) : 'a =
  if not !on then f ()
  else begin
    let parent = match !open_stack with (i, _) :: _ -> i | [] -> -1 in
    let sp =
      {
        sp_name = name;
        sp_op = (match op with Some o -> o | None -> current_op ());
        sp_parent = parent;
        sp_start = Unix.gettimeofday ();
        sp_stop = 0.0;
        sp_alloc = 0.0;
      }
    in
    let idx = !n_spans in
    incr n_spans;
    spans := sp :: !spans;
    open_stack := (idx, sp) :: !open_stack;
    let w0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        sp.sp_alloc <- Gc.minor_words () -. w0;
        sp.sp_stop <- Unix.gettimeofday ();
        open_stack := List.tl !open_stack)
      f
  end

(** Add [v] to the count [name] (traced run only). *)
let count (name : string) (v : float) : unit =
  if !on then
    Hashtbl.replace counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let count_int name n = count name (float_of_int n)

let all () : span array = Array.of_list (List.rev !spans)

(** Per span: (self seconds, self minor words) — its own interval minus
    the part its child spans cover. *)
let self_costs (a : span array) : (float * float) array =
  let self =
    Array.map (fun sp -> (sp.sp_stop -. sp.sp_start, sp.sp_alloc)) a
  in
  Array.iter
    (fun sp ->
      if sp.sp_parent >= 0 then begin
        let t, w = self.(sp.sp_parent) in
        self.(sp.sp_parent) <-
          (t -. (sp.sp_stop -. sp.sp_start), w -. sp.sp_alloc)
      end)
    a;
  self

(** Layer name -> (self seconds, self minor words), summed over spans. *)
let layers () : (string, float * float) Hashtbl.t =
  let a = all () in
  let self = self_costs a in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i sp ->
      let t, w = self.(i) in
      let t0, w0 =
        Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl sp.sp_name)
      in
      Hashtbl.replace tbl sp.sp_name (t0 +. t, w0 +. w))
    a;
  tbl

(** The spans as a Chrome [trace_event] document (complete events,
    microseconds from the first span). *)
let chrome () : Json.t =
  let a = all () in
  let t0 = if Array.length a = 0 then 0.0 else a.(0).sp_start in
  let us t = Json.Float (Float.round ((t -. t0) *. 1e6)) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i sp ->
                  Json.Obj
                    [
                      ("name", Json.Str sp.sp_name);
                      ("cat", Json.Str "ledger");
                      ("ph", Json.Str "X");
                      ("ts", us sp.sp_start);
                      ("dur", Json.Float (Float.round ((sp.sp_stop -. sp.sp_start) *. 1e6)));
                      ("pid", Json.Int 1);
                      ("tid", Json.Int 1);
                      ( "args",
                        Json.Obj
                          [
                            ("span", Json.Int i);
                            ("op", Json.Int sp.sp_op);
                            ("parent", Json.Int sp.sp_parent);
                            ("alloc_words", Json.Float sp.sp_alloc);
                          ] );
                    ])
                a)) );
      ("displayTimeUnit", Json.Str "ms");
    ]
