(* Unit tests for the telemetry layer (lib/obs): span nesting and timing
   under a deterministic fake clock, metrics registry semantics and
   merging, manifest JSON round-trips, and the heat-map summary edge
   cases the manifest relies on. *)

module Json = Bolt_obs.Json
module Metrics = Bolt_obs.Metrics
module Trace = Bolt_obs.Trace
module Obs = Bolt_obs.Obs
module Manifest = Bolt_obs.Manifest
module Heatmap = Bolt_core.Heatmap

(* A hand-cranked clock: tests advance time explicitly. *)
let fake_clock () =
  let t = ref 0.0 in
  ((fun () -> !t), fun d -> t := !t +. d)

(* ---- trace spans ---- *)

let test_span_nesting () =
  let clock, advance = fake_clock () in
  let tr = Trace.create ~clock ~name:"root" () in
  Trace.with_span tr "outer" (fun () ->
      advance 0.5;
      Trace.with_span tr "inner" (fun () -> advance 0.25);
      Trace.with_span tr "inner2" (fun () -> advance 0.125));
  Trace.finish tr;
  let flat = Trace.flatten tr in
  Alcotest.(check (list (pair int string)))
    "pre-order depth/name"
    [ (0, "root"); (1, "outer"); (2, "inner"); (2, "inner2") ]
    (List.map (fun (d, (s : Trace.span)) -> (d, s.Trace.sp_name)) flat);
  let dur name =
    let _, s = List.find (fun (_, s) -> s.Trace.sp_name = name) flat in
    s.Trace.sp_dur
  in
  Alcotest.(check (float 1e-9)) "outer duration" 0.875 (dur "outer");
  Alcotest.(check (float 1e-9)) "inner duration" 0.25 (dur "inner");
  Alcotest.(check (float 1e-9)) "inner2 duration" 0.125 (dur "inner2");
  Alcotest.(check (float 1e-9)) "root duration" 0.875 (dur "root")

let test_span_monotonic () =
  (* a clock that jumps backwards must never produce negative durations
     or out-of-order siblings *)
  let t = ref 10.0 in
  let readings = ref [ 10.0; 9.0; 8.5; 11.0; 7.0 ] in
  let clock () =
    (match !readings with
    | v :: rest ->
        t := v;
        readings := rest
    | [] -> ());
    !t
  in
  let tr = Trace.create ~clock ~name:"root" () in
  Trace.with_span tr "a" (fun () -> ());
  Trace.with_span tr "b" (fun () -> ());
  Trace.finish tr;
  List.iter
    (fun (_, (s : Trace.span)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s duration non-negative" s.Trace.sp_name)
        true
        (s.Trace.sp_dur >= 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s start non-negative" s.Trace.sp_name)
        true
        (s.Trace.sp_start >= 0.0))
    (Trace.flatten tr)

let test_span_exception () =
  let clock, advance = fake_clock () in
  let tr = Trace.create ~clock ~name:"root" () in
  (try
     Trace.with_span tr "boom" (fun () ->
         advance 1.0;
         failwith "kaboom")
   with Failure _ -> ());
  Trace.finish tr;
  match Trace.flatten tr with
  | [ _; (1, s) ] ->
      Alcotest.(check (float 1e-9)) "failed span still timed" 1.0 s.Trace.sp_dur;
      Alcotest.(check bool)
        "error attr attached" true
        (List.mem_assoc "error" s.Trace.sp_attrs)
  | other -> Alcotest.failf "expected root + 1 span, got %d" (List.length other)

(* ---- metrics registry ---- *)

let test_metrics_basics () =
  let m = Metrics.create () in
  Metrics.incr m "pass.icf.folded";
  Metrics.incr m ~by:4 "pass.icf.folded";
  Metrics.set m "profile.staleness_ratio" 0.25;
  Alcotest.(check int) "counter" 5 (Metrics.counter m "pass.icf.folded");
  Alcotest.(check (float 0.0)) "gauge" 0.25 (Metrics.gauge m "profile.staleness_ratio");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: pass.icf.folded is a counter, not a gauge")
    (fun () -> Metrics.set m "pass.icf.folded" 1.0)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a ~by:3 "c.shared";
  Metrics.incr a ~by:1 "c.only_a";
  Metrics.set a "g.x" 1.0;
  Metrics.incr b ~by:4 "c.shared";
  Metrics.incr b ~by:7 "c.only_b";
  Metrics.set b "g.x" 2.0;
  Metrics.merge ~into:a b;
  Alcotest.(check int) "counters add" 7 (Metrics.counter a "c.shared");
  Alcotest.(check int) "a-only kept" 1 (Metrics.counter a "c.only_a");
  Alcotest.(check int) "b-only copied" 7 (Metrics.counter a "c.only_b");
  Alcotest.(check (float 0.0)) "gauge takes other's" 2.0 (Metrics.gauge a "g.x");
  (* merging into a fresh registry must not alias the source *)
  let fresh = Metrics.create () in
  Metrics.merge ~into:fresh a;
  Metrics.incr fresh "c.shared";
  Alcotest.(check int) "merge copies, not aliases" 7 (Metrics.counter a "c.shared")

let test_counter_delta () =
  let m = Metrics.create () in
  Metrics.incr m ~by:2 "a";
  Metrics.incr m ~by:5 "b";
  let before = Metrics.counters m in
  Metrics.incr m ~by:3 "b";
  Metrics.incr m "c";
  Alcotest.(check (list (pair string int)))
    "only moved counters, sorted"
    [ ("b", 3); ("c", 1) ]
    (Metrics.counter_delta m ~before)

(* ---- JSON + manifest round-trip ---- *)

let json = Alcotest.testable Json.pp ( = )

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("int", Json.Int 42);
        ("neg", Json.Int (-7));
        ("float", Json.Float 3.25);
        ("float_int_valued", Json.Float 2.0);
        ("tiny", Json.Float 1.5e-9);
        ("string", Json.String "a \"quoted\"\n\ttab\\slash\x01");
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ("nested", Json.Obj [ ("l", Json.List [ Json.Int 1; Json.Obj [ ("k", Json.Null) ] ]) ]);
      ]
  in
  Alcotest.check json "compact round-trip" v (Json.of_string (Json.to_string v));
  Alcotest.check json "indented round-trip" v
    (Json.of_string (Json.to_string ~indent:true v));
  (* the int/float split survives: 2.0 must come back as Float, 2 as Int *)
  Alcotest.check json "float stays float" (Json.Float 2.0) (Json.of_string "2.0");
  Alcotest.check json "int stays int" (Json.Int 2) (Json.of_string "2")

let test_json_deep_nesting () =
  (* history records nest tool sections arbitrarily; the parser must
     survive structures far deeper than anything the tools emit *)
  let depth = 300 in
  let rec deep_list n = if n = 0 then Json.Int 7 else Json.List [ deep_list (n - 1) ] in
  let rec deep_obj n =
    if n = 0 then Json.Bool true else Json.Obj [ ("k", deep_obj (n - 1)) ]
  in
  let v = Json.Obj [ ("l", deep_list depth); ("o", deep_obj depth) ] in
  Alcotest.check json "deep nesting round-trips" v (Json.of_string (Json.to_string v));
  Alcotest.check json "deep nesting round-trips indented" v
    (Json.of_string (Json.to_string ~indent:true v))

let test_json_escape_roundtrip () =
  (* every control character, the two mandatory escapes, and raw bytes
     above 0x7f (UTF-8 passes through untouched) *)
  let controls = String.init 0x20 Char.chr in
  let cases =
    [
      controls;
      "quote \" backslash \\ slash /";
      "caf\xc3\xa9 \xe2\x82\xac";
      (* raw UTF-8 bytes *)
      "\x7f\x80\xff";
    ]
  in
  List.iter
    (fun s ->
      Alcotest.check json
        (Printf.sprintf "escape round-trip %S" s)
        (Json.String s)
        (Json.of_string (Json.to_string (Json.String s))))
    cases;
  (* \u escapes we never emit still parse: ASCII, 2-byte and 3-byte *)
  Alcotest.check json "\\u0041" (Json.String "A") (Json.of_string {|"A"|});
  Alcotest.check json "\\u00e9" (Json.String "\xc3\xa9") (Json.of_string {|"é"|});
  Alcotest.check json "\\u20ac" (Json.String "\xe2\x82\xac")
    (Json.of_string {|"€"|})

let test_json_nonfinite_policy () =
  (* NaN and the infinities have no JSON spelling: they print as null so
     a manifest with a degenerate rate never produces unparseable output *)
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string)
    "inf is null" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string)
    "-inf is null" "null"
    (Json.to_string (Json.Float Float.neg_infinity));
  Alcotest.(check string)
    "nested nonfinite" {|[1.0,null,2.5]|}
    (Json.to_string
       (Json.List [ Json.Float 1.0; Json.Float Float.nan; Json.Float 2.5 ]))

let test_json_int_float_boundaries () =
  let rt v = Json.of_string (Json.to_string v) in
  (* int-valued floats keep their decimal point up to the 1e15 printing
     boundary; past it the %g spelling still round-trips as Float *)
  Alcotest.check json "2^53 float" (Json.Float 9007199254740992.0)
    (rt (Json.Float 9007199254740992.0));
  Alcotest.check json "1e15 float" (Json.Float 1e15) (rt (Json.Float 1e15));
  Alcotest.check json "1e15-1 float" (Json.Float (1e15 -. 1.0))
    (rt (Json.Float (1e15 -. 1.0)));
  Alcotest.check json "big int stays int" (Json.Int 1_000_000_000_000_000)
    (rt (Json.Int 1_000_000_000_000_000));
  Alcotest.check json "max_int" (Json.Int max_int) (rt (Json.Int max_int));
  Alcotest.check json "min_int" (Json.Int min_int) (rt (Json.Int min_int));
  Alcotest.check json "subnormal float" (Json.Float 5e-324) (rt (Json.Float 5e-324));
  Alcotest.check json "tiny rate" (Json.Float 1.25e-9) (rt (Json.Float 1.25e-9));
  (* the printed spelling always marks floats as floats *)
  Alcotest.(check string) "int-valued float keeps point" "2.0"
    (Json.to_string (Json.Float 2.0));
  Alcotest.(check bool) "1e15 prints with exponent or point" true
    (let s = Json.to_string (Json.Float 1e15) in
     String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s)

let test_manifest_roundtrip () =
  let clock, advance = fake_clock () in
  let obs = Obs.create ~clock ~name:"test-tool" () in
  Obs.span obs "stage-1" (fun () ->
      advance 0.5;
      Obs.incr obs ~by:3 "pass.test.things";
      Obs.span obs "stage-1.child" (fun () -> advance 0.25));
  Obs.event obs "quarantine" ~attrs:[ ("func", Json.String "f12") ];
  Obs.set obs "profile.staleness_ratio" 0.125;
  let m =
    Manifest.make ~tool:"test-tool" ~argv:[ "test"; "--flag" ]
      ~sections:[ ("extra", Json.Obj [ ("k", Json.Int 1) ]) ]
      obs
  in
  let m' = Json.of_string (Json.to_string ~indent:true m) in
  Alcotest.check json "manifest round-trips exactly" m m';
  Alcotest.(check (option string))
    "schema" (Some Manifest.schema)
    (Json.get_string (Json.member "schema" m'));
  Alcotest.(check (option string))
    "tool" (Some "test-tool")
    (Json.get_string (Json.member "tool" m'));
  (* reading spans back: root + 2 spans, metrics delta attached *)
  let spans = Manifest.flat_spans m' in
  Alcotest.(check (list (pair int string)))
    "flat spans"
    [ (0, "test-tool"); (1, "stage-1"); (2, "stage-1.child") ]
    (List.map (fun (s : Manifest.flat_span) -> (s.Manifest.fs_depth, s.Manifest.fs_name)) spans);
  let stage1 = List.find (fun s -> s.Manifest.fs_name = "stage-1") spans in
  Alcotest.(check (float 1e-9)) "span duration survives" 0.75 stage1.Manifest.fs_dur;
  (match Json.member "metrics" (Json.Obj stage1.Manifest.fs_attrs) with
  | Some (Json.Obj [ ("pass.test.things", Json.Int 3) ]) -> ()
  | _ -> Alcotest.fail "per-span counter delta missing");
  (* slowest: child-before-parent ordering not required, just sorted by time *)
  match Manifest.slowest ~n:1 m' with
  | [ s ] -> Alcotest.(check string) "slowest span" "stage-1" s.Manifest.fs_name
  | _ -> Alcotest.fail "slowest ~n:1 did not return one span"

let test_disabled_obs () =
  let obs = Obs.create ~enabled:false ~name:"off" () in
  let r = Obs.span obs "stage" (fun () -> Obs.incr obs "x"; 17) in
  Alcotest.(check int) "wrapped function still runs" 17 r;
  Alcotest.(check int) "no metrics recorded" 0 (Metrics.counter obs.Obs.metrics "x");
  match Trace.flatten obs.Obs.trace with
  | [ (0, _) ] -> ()
  | l -> Alcotest.failf "disabled obs recorded %d spans" (List.length l - 1)

(* ---- heat-map summary edge cases ---- *)

let test_heatmap_empty () =
  let hm = Heatmap.build ~base:0x1000 ~span:4096 (Hashtbl.create 0) in
  Alcotest.(check int) "empty histogram has no extent" 0 (Heatmap.hot_extent hm);
  Alcotest.(check (float 0.0)) "empty histogram has no prefix heat" 0.0
    (Heatmap.heat_in_prefix hm (1.0 /. 16.0));
  match Json.member "hot_cells" (Heatmap.summary_json hm) with
  | Some (Json.Int 0) -> ()
  | _ -> Alcotest.fail "summary_json hot_cells should be 0"

let test_heatmap_hot_line_at_end () =
  (* one hot line in the very last bucket of the span: the extent must be
     the whole span and none of the heat is in the prefix *)
  let span = 64 * 64 * 8 in
  let heat = Hashtbl.create 1 in
  Hashtbl.replace heat (span - 8) 100;
  let hm = Heatmap.build ~base:0 ~span heat in
  Alcotest.(check int) "extent reaches the end" span (Heatmap.hot_extent hm);
  Alcotest.(check (float 0.0)) "no heat in the first 1/16" 0.0
    (Heatmap.heat_in_prefix hm (1.0 /. 16.0));
  Alcotest.(check (float 1e-9)) "all heat within the whole span" 1.0
    (Heatmap.heat_in_prefix hm 1.0)

let test_heatmap_out_of_range_ignored () =
  let heat = Hashtbl.create 2 in
  Hashtbl.replace heat 0x900 50 (* below base *);
  Hashtbl.replace heat 0x10000 50 (* beyond span *);
  let hm = Heatmap.build ~base:0x1000 ~span:4096 heat in
  Alcotest.(check int) "out-of-range lines contribute nothing" 0 (Heatmap.hot_extent hm)

let suite =
  [
    Alcotest.test_case "span nesting and fake-clock timing" `Quick test_span_nesting;
    Alcotest.test_case "span durations never negative" `Quick test_span_monotonic;
    Alcotest.test_case "span closed and marked on exception" `Quick test_span_exception;
    Alcotest.test_case "metrics basics and kind safety" `Quick test_metrics_basics;
    Alcotest.test_case "metrics merge semantics" `Quick test_metrics_merge;
    Alcotest.test_case "counter deltas" `Quick test_counter_delta;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
    Alcotest.test_case "json escape round-trips" `Quick test_json_escape_roundtrip;
    Alcotest.test_case "json nan/infinity policy" `Quick test_json_nonfinite_policy;
    Alcotest.test_case "json int/float boundaries" `Quick test_json_int_float_boundaries;
    Alcotest.test_case "manifest round-trip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "disabled obs is a no-op" `Quick test_disabled_obs;
    Alcotest.test_case "heatmap: empty histogram" `Quick test_heatmap_empty;
    Alcotest.test_case "heatmap: hot line at span end" `Quick test_heatmap_hot_line_at_end;
    Alcotest.test_case "heatmap: out-of-range lines" `Quick test_heatmap_out_of_range_ignored;
  ]
