(** Serve response journal (JSON schema [dcir-serve-journal/3]).

    The journal is the serving engine's complete, replayable decision
    record: one sequenced entry per admission-control and scheduling
    decision ([SRV-*] codes, the same closed catalogue registered in
    {!Dcir_obs.Events}), the per-request responses in completion order,
    and a summary with per-code counts. No timestamps, no ordering
    dependent on other tenants' internals: the same request file under
    the same seed and configuration produces a byte-identical journal
    (enforced by a [cmp] rule under [dune runtest]), and
    [validate_report.exe] gates the schema — contiguous sequence
    numbers, catalogued codes, every rejection carrying its tenant and
    reason.

    The decision record is a {!Dcir_obs.Events.t} log holding [SRV-*]
    codes; make one with [Events.create]. *)

module Json = Dcir_obs.Json
module Events = Dcir_obs.Events

type entry = Events.event
type t = Events.t

let entries : t -> entry list = Events.events

(** Append an entry and mirror it onto the ambient event stream (so
    [--events] traces interleave serve decisions with compiler
    decisions). *)
let record (t : t) ~(code : string) (fields : (string * Json.t) list) : unit =
  Events.record t ~code fields;
  Events.emit ~code fields

let count_code (t : t) (code : string) : int =
  List.length (Events.with_code t code)

(* ---- responses --------------------------------------------------- *)

type status = Done | Rejected | Failed

let status_name = function
  | Done -> "ok"
  | Rejected -> "rejected"
  | Failed -> "failed"

type response = {
  rs_id : string;
  rs_tenant : string;
  rs_status : status;
  rs_code : string;  (** ["ok"], or the stable rejection/failure code *)
  rs_tier : string option;  (** tier the artifact landed at *)
  rs_attempts : int;  (** attempts consumed (0 = never attempted) *)
  rs_cycles : float option;  (** machine metrics, run requests only *)
  rs_loads : int option;
  rs_stores : int option;
  rs_return : string option;  (** printed return value, run requests *)
  rs_digest : string option;  (** artifact digest, compile requests *)
}

let response_json (r : response) : Json.t =
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  Json.Obj
    ([
       ("id", Json.Str r.rs_id);
       ("tenant", Json.Str r.rs_tenant);
       ("status", Json.Str (status_name r.rs_status));
       ("code", Json.Str r.rs_code);
       ("attempts", Json.Int r.rs_attempts);
     ]
    @ opt "tier" (fun s -> Json.Str s) r.rs_tier
    @ opt "cycles" (fun c -> Json.Float c) r.rs_cycles
    @ opt "loads" (fun n -> Json.Int n) r.rs_loads
    @ opt "stores" (fun n -> Json.Int n) r.rs_stores
    @ opt "return" (fun s -> Json.Str s) r.rs_return
    @ opt "digest" (fun s -> Json.Str s) r.rs_digest)

let entry_json : entry -> Json.t = Events.event_json

(* ---- document ---------------------------------------------------- *)

let count_status (responses : response list) (s : status) : int =
  List.length (List.filter (fun r -> r.rs_status = s) responses)

(** The [dcir-serve-journal/3] document. [config] fields are spliced
    into the header (queue capacity, breaker thresholds, ...). *)
let to_json ~(seed : int) ~(config : (string * Json.t) list)
    ~(responses : response list) (t : t) : Json.t =
  let codes =
    (* Per-code counts over the codes that actually occur, sorted. *)
    List.sort_uniq compare
      (List.map (fun (e : entry) -> e.ev_code) (entries t))
    |> List.map (fun c -> (c, Json.Int (count_code t c)))
  in
  Json.Obj
    [
      ("schema", Json.Str "dcir-serve-journal/3");
      ("seed", Json.Int seed);
      ("config", Json.Obj config);
      ("entries", Json.List (List.map entry_json (entries t)));
      ("responses", Json.List (List.map response_json responses));
      ( "summary",
        Json.Obj
          [
            ("requests", Json.Int (List.length responses));
            ("ok", Json.Int (count_status responses Done));
            ("rejected", Json.Int (count_status responses Rejected));
            ("failed", Json.Int (count_status responses Failed));
            ("retries", Json.Int (count_code t "SRV-RETRY"));
            ("shed", Json.Int (count_code t "SRV-SHED"));
            ("codes", Json.Obj codes);
          ] );
    ]

let to_string ~seed ~config ~responses (t : t) : string =
  Json.to_string (to_json ~seed ~config ~responses t)

(* Atomic (temp file + rename): a serve process killed mid-write must
   never leave a torn journal where a previous good one stood. *)
let write ~seed ~config ~responses (t : t) (path : string) : unit =
  Dcir_support.Atomic_io.write path (fun oc ->
      output_string oc (to_string ~seed ~config ~responses t);
      output_char oc '\n')

(** A tenant's responses, rendered — the unit of the isolation oracle:
    this list must be byte-identical between a multi-tenant run and a
    solo run of the same tenant's requests. *)
let responses_for_tenant (responses : response list) (tenant : string) :
    string list =
  List.filter (fun r -> r.rs_tenant = tenant) responses
  |> List.map (fun r -> Json.to_string (response_json r))
