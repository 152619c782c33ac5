(* The unified telemetry handle every layer threads: one trace, one
   metrics registry, one event log.

   [span] is the instrumentation workhorse: it times the stage AND
   attaches the registry's counter movement during the stage to the span
   as `metrics`, so the manifest shows per-pass metric deltas without the
   passes doing anything beyond [incr].  With [enabled = false] every
   operation is a no-op beyond running the wrapped function, which is
   what the <2%-overhead requirement is measured against. *)

type t = {
  trace : Trace.t;
  metrics : Metrics.t;
  enabled : bool;
}

let create ?clock ?(enabled = true) ?(name = "run") () =
  { trace = Trace.create ?clock ~name (); metrics = Metrics.create (); enabled }

(* A shared disabled instance for call sites that want telemetry to be
   optional without an option type. *)
let null () = create ~enabled:false ~name:"null" ()

let is_enabled t = t.enabled
let incr t ?by name = if t.enabled then Metrics.incr t.metrics ?by name
let set t name v = if t.enabled then Metrics.set t.metrics name v
let event t ?attrs name = if t.enabled then Trace.event t.trace ?attrs name
let add_child t ?attrs name ~dur_s =
  if t.enabled then Trace.add_child t.trace ?attrs name ~dur_s
let set_attr t key v = if t.enabled then Trace.set_attr t.trace key v

let span t name ?attrs f =
  if not t.enabled then f ()
  else begin
    let before = Metrics.counters t.metrics in
    Trace.with_span t.trace name ?attrs (fun () ->
        let r = f () in
        (match Metrics.counter_delta t.metrics ~before with
        | [] -> ()
        | moved ->
            Trace.set_attr t.trace "metrics"
              (Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) moved)));
        r)
  end

let finish t = if t.enabled then Trace.finish t.trace
