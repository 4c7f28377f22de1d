(** Small shared helpers for the test suite. *)

(** Substring search (no external deps). *)
let contains (haystack : string) (needle : string) : bool =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then true
  else
    let rec go i =
      if i + n > h then false
      else if String.equal (String.sub haystack i n) needle then true
      else go (i + 1)
    in
    go 0

(** Run a C source through a pipeline and return (outputs, cycles). *)
let run_pipeline ?disable (kind : Dcir_core.Pipelines.kind) ~(src : string)
    ~(entry : string) (args : Dcir_core.Pipelines.arg list) :
    Dcir_core.Pipelines.run_result =
  let compiled = Dcir_core.Pipelines.compile ?disable kind ~src ~entry in
  Dcir_core.Pipelines.run compiled ~entry args
