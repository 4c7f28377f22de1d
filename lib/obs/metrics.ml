(** Always-on metrics registry: named counters and fixed-bucket
    histograms.

    Unlike spans ({!Obs.with_span}), which are gated behind [Obs.enable],
    metrics are cheap enough (an int/float store) to update
    unconditionally, and every value fed to them in this codebase is
    {e deterministic} — counted decisions (pass rollbacks, fixpoint
    rounds, fuel spent), never wall clocks — so a metrics snapshot is
    byte-reproducible for a given command and seed.

    One registry per process, keyed by name; [make] is find-or-create, so
    any module can name a metric without coordinating ownership.
    {!Obs.reset} zeroes all values (registrations survive — held handles
    stay live). *)

type kind = KCounter | KHistogram

type metric = {
  m_name : string;
  m_kind : kind;
  mutable m_value : float;  (** counter value *)
  m_edges : float array;  (** histogram upper bucket edges, ascending *)
  m_counts : int array;  (** per-bucket counts; last slot = overflow *)
  mutable m_total : int;  (** histogram observations *)
  mutable m_sum : float;  (** sum of observed values *)
}

let registry : (string, metric) Hashtbl.t = Hashtbl.create 32

(* Registration can race when library code first touches a metric from a
   worker domain; the lock covers structural table mutation only — field
   updates on a handle stay lock-free (all journaled values are written
   from the single supervisor/CLI domain). *)
let registry_mutex = Mutex.create ()

let find_or_create (name : string) (kind : kind) ~(edges : float array) :
    metric =
  Mutex.protect registry_mutex @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some m ->
      if m.m_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %S already registered with another kind"
             name);
      m
  | None ->
      let m =
        {
          m_name = name;
          m_kind = kind;
          m_value = 0.0;
          m_edges = edges;
          m_counts = Array.make (Array.length edges + 1) 0;
          m_total = 0;
          m_sum = 0.0;
        }
      in
      Hashtbl.replace registry name m;
      m

module Counter = struct
  type t = metric

  let make (name : string) : t = find_or_create name KCounter ~edges:[||]
  let incr ?(by = 1) (c : t) : unit = c.m_value <- c.m_value +. float_of_int by
  let value (c : t) : int = int_of_float c.m_value
  let name (c : t) : string = c.m_name
end

module Histogram = struct
  type t = metric

  (** [make name ~edges] — [edges] are the inclusive upper bounds of each
      bucket, strictly ascending; an observation [v] lands in the first
      bucket with [v <= edge], or in the implicit overflow bucket past the
      last edge. *)
  let make (name : string) ~(edges : float array) : t =
    if Array.length edges = 0 then
      invalid_arg "Metrics.Histogram.make: empty bucket edges";
    Array.iteri
      (fun i e ->
        if i > 0 && not (edges.(i - 1) < e) then
          invalid_arg "Metrics.Histogram.make: edges must ascend strictly")
      edges;
    find_or_create name KHistogram ~edges

  let observe (h : t) (v : float) : unit =
    h.m_total <- h.m_total + 1;
    h.m_sum <- h.m_sum +. v;
    let n = Array.length h.m_edges in
    let rec idx i = if i >= n || v <= h.m_edges.(i) then i else idx (i + 1) in
    let i = idx 0 in
    h.m_counts.(i) <- h.m_counts.(i) + 1

  let edges (h : t) : float array = Array.copy h.m_edges

  (** Per-bucket counts; the final entry is the overflow bucket. *)
  let counts (h : t) : int array = Array.copy h.m_counts

  let total (h : t) : int = h.m_total
  let sum (h : t) : float = h.m_sum
  let name (h : t) : string = h.m_name
end

(** Zero every value; registrations (and handles held by callers) stay
    valid. Called by {!Obs.reset}. *)
let reset_all () : unit =
  Mutex.protect registry_mutex @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      m.m_value <- 0.0;
      Array.fill m.m_counts 0 (Array.length m.m_counts) 0;
      m.m_total <- 0;
      m.m_sum <- 0.0)
    registry

let sorted (kind : kind) : metric list =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold
        (fun _ m acc -> if m.m_kind = kind then m :: acc else acc)
        registry [])
  |> List.sort (fun a b -> compare a.m_name b.m_name)

(** Deterministic snapshot: all metrics, grouped by kind, sorted by name. *)
let to_json () : Json.t =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map
             (fun m -> (m.m_name, Json.Int (int_of_float m.m_value)))
             (sorted KCounter)) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun m ->
               ( m.m_name,
                 Json.Obj
                   [
                     ( "edges",
                       Json.List
                         (Array.to_list
                            (Array.map (fun e -> Json.Float e) m.m_edges)) );
                     ( "counts",
                       Json.List
                         (Array.to_list
                            (Array.map (fun c -> Json.Int c) m.m_counts)) );
                     ("total", Json.Int m.m_total);
                     ("sum", Json.Float m.m_sum);
                   ] ))
             (sorted KHistogram)) );
    ]

let pp (ppf : Format.formatter) () : unit =
  List.iter
    (fun (m : metric) ->
      Format.fprintf ppf "%-32s %d@." m.m_name (int_of_float m.m_value))
    (sorted KCounter);
  List.iter
    (fun (m : metric) ->
      Format.fprintf ppf "%-32s total=%d sum=%.0f buckets=[%s]@." m.m_name
        m.m_total m.m_sum
        (String.concat "; "
           (Array.to_list (Array.map string_of_int m.m_counts))))
    (sorted KHistogram)
