(* BOLT's profile format (the fdata/YAML analog): function-relative branch
   records, fall-through ranges and plain IP samples.

   Produced by [Perf2bolt] from raw simulator samples; consumed by the
   rewriter's profile matcher and folded across hosts by the fleet merger
   (lib/fleet).  Text format, one record per line:

     mode lbr|sample
     H <key> <value>                               (provenance header)
     B <from_func> <from_off> <to_func> <to_off> <count> <mispreds>
     F <func> <start_off> <end_off> <count>        (LBR fall-through range)
     S <func> <off> <count>                        (non-LBR IP sample)

   Function names never contain spaces by construction.

   Counts are 64-bit and every accumulation saturates at [Int64.max_int]:
   a fleet-wide merge of thousands of shards must degrade to a pinned
   counter, never wrap into garbage (or worse, a negative weight).

   Profiles are data about a binary, not part of it; a malformed or stale
   profile must degrade optimization quality, never correctness.  Parsing
   is therefore lenient by default: malformed and unknown records are
   skipped with a warning each.  [~strict:true] restores the hard
   [Bad_format] failure for tooling that wants it.  Header records are
   new; old readers skip them as unknown tags, old files simply have no
   header. *)

(* ---- saturating 64-bit arithmetic ---- *)

(* [sat_add] is commutative and, over non-negative operands, associative:
   min(max_int, a+b+c) regardless of grouping.  The fleet merger's
   order-independence proof leans on exactly this. *)
let sat_add (a : int64) (b : int64) : int64 =
  if a > Int64.sub Int64.max_int b then Int64.max_int else Int64.add a b

(* Scale a count by a non-negative float factor (shard weight x decay),
   rounding to nearest, saturating on overflow.

   The factor-1.0 case short-circuits to the exact count: going through
   the float path would round counts within 1024 of [Int64.max_int] up to
   2^63 ([Int64.to_float] keeps 53 mantissa bits) and return a wrongly
   saturated [max_int] for an identity scale. *)
let sat_scale (c : int64) (f : float) : int64 =
  if f <= 0.0 then 0L
  else if f = 1.0 then c
  else
    let x = Float.round (Int64.to_float c *. f) in
    if x >= Int64.to_float Int64.max_int then Int64.max_int else Int64.of_float x

(* Clamp to a native int for consumers feeding int-based machinery
   (edge counts, call-graph weights).  On 64-bit OCaml this only bites
   within a factor of two of saturation. *)
let clamp_int (c : int64) : int =
  if c > Int64.of_int max_int then max_int
  else if c < 0L then 0
  else Int64.to_int c

(* [sat_add] on native ints, for the int-based consumers' sums: call
   weights saturate at [max_int] like every other count. *)
let sat_add_int a b = if a > max_int - b then max_int else a + b

(* ---- records ---- *)

type branch = {
  br_from_func : string;
  br_from_off : int;
  br_to_func : string;
  br_to_off : int;
  br_count : int64;
  br_mispreds : int64;
}

type range = { rg_func : string; rg_start : int; rg_end : int; rg_count : int64 }

type sample = { sm_func : string; sm_off : int; sm_count : int64 }

(* Shard provenance, carried in `H` records: which host produced the
   profile, against which binary revision, when, and how many raw events
   went into it.  [hd_weight] is a merge-time knob (relative trust /
   traffic share of the host), default 1. *)
type header = {
  hd_host : string;
  hd_build_id : string; (* hex build-id of the profiled binary; "" unknown *)
  hd_timestamp : int; (* seconds since the fleet epoch; 0 unknown *)
  hd_events : int64; (* raw hardware events behind this shard *)
  hd_weight : float;
}

let no_header =
  { hd_host = ""; hd_build_id = ""; hd_timestamp = 0; hd_events = 0L; hd_weight = 1.0 }

type t = {
  lbr : bool;
  header : header option;
  branches : branch list;
  ranges : range list;
  samples : sample list;
  total_samples : int64;
  fingerprints : Bolt_obj.Fingerprint.func list;
      (* structural fingerprints of the binary the profile was collected
         on, copied from its BELF fingerprint table at conversion time.
         [] for old shards; the raw material for stale-profile matching. *)
}

let empty =
  {
    lbr = true;
    header = None;
    branches = [];
    ranges = [];
    samples = [];
    total_samples = 0L;
    fingerprints = [];
  }

(* Aggregate count of events attributed to a function, used for function
   hotness by the reorder-functions pass. *)
let func_events t =
  let h = Hashtbl.create 64 in
  let add f c = Hashtbl.replace h f (sat_add c (try Hashtbl.find h f with Not_found -> 0L)) in
  List.iter (fun b -> add b.br_from_func b.br_count) t.branches;
  List.iter (fun r -> add r.rg_func r.rg_count) t.ranges;
  List.iter (fun s -> add s.sm_func s.sm_count) t.samples;
  h

(* ---- canonical form ---- *)

(* Every record of [t], in list order, to the matching callback. *)
let iter_records t ~branch ~range ~sample =
  List.iter branch t.branches;
  List.iter range t.ranges;
  List.iter sample t.samples

(* ---- key order and sort-and-fold ---- *)

(* The one record order: by key fields, in declaration order, on
   [String.compare] and [Int.compare].  A folded run holds distinct
   keys, and on two records with distinct keys polymorphic [compare]
   also decides at the first differing key field, in the same string
   and integer order: canonical output is ordered exactly as
   [List.sort compare] orders it. *)
let compare_branch a b =
  let c = String.compare a.br_from_func b.br_from_func in
  if c <> 0 then c
  else
    let c = Int.compare a.br_from_off b.br_from_off in
    if c <> 0 then c
    else
      let c = String.compare a.br_to_func b.br_to_func in
      if c <> 0 then c else Int.compare a.br_to_off b.br_to_off

let compare_range a b =
  let c = String.compare a.rg_func b.rg_func in
  if c <> 0 then c
  else
    let c = Int.compare a.rg_start b.rg_start in
    if c <> 0 then c else Int.compare a.rg_end b.rg_end

let compare_sample a b =
  let c = String.compare a.sm_func b.sm_func in
  if c <> 0 then c else Int.compare a.sm_off b.sm_off

let add_branch a b =
  {
    a with
    br_count = sat_add a.br_count b.br_count;
    br_mispreds = sat_add a.br_mispreds b.br_mispreds;
  }

let add_range a b = { a with rg_count = sat_add a.rg_count b.rg_count }
let add_sample a b = { a with sm_count = sat_add a.sm_count b.sm_count }

(* Records are buffered per kind and folded a chunk at a time, so live
   memory is one record per distinct key plus one chunk, however long
   the feed. *)
let fold_chunk = 65_536

(* One kind's records: [buf.(0 .. n-1)] as fed, and [run], the records
   of every earlier chunk sorted with one record per key. *)
type 'a folder = {
  cmp : 'a -> 'a -> int;
  add : 'a -> 'a -> 'a;
  mutable buf : 'a array;
  mutable n : int;
  mutable run : 'a array;
}

let folder cmp add = { cmp; add; buf = [||]; n = 0; run = [||] }

(* Merge two sorted runs of distinct keys, folding a key both hold with
   [add], the earlier run's record first. *)
let merge_runs cmp add x y =
  let nx = Array.length x and ny = Array.length y in
  if nx = 0 then y
  else if ny = 0 then x
  else begin
    let out = Array.append x y in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < nx && !j < ny do
      let c = cmp x.(!i) y.(!j) in
      out.(!k) <-
        (if c < 0 then x.(!i) else if c > 0 then y.(!j) else add x.(!i) y.(!j));
      if c <= 0 then incr i;
      if c >= 0 then incr j;
      incr k
    done;
    Array.blit x !i out !k (nx - !i);
    Array.blit y !j out (!k + nx - !i) (ny - !j);
    let n = !k + nx - !i + ny - !j in
    if n = nx + ny then out else Array.sub out 0 n
  end

(* Sort the buffered records (stably, so equal keys fold in feed
   order), fold equal neighbours, and merge the result into [run]. *)
let flush f =
  if f.n > 0 then begin
    let a = if f.n = Array.length f.buf then f.buf else Array.sub f.buf 0 f.n in
    Array.stable_sort f.cmp a;
    let k = ref 0 in
    for i = 1 to f.n - 1 do
      if f.cmp a.(!k) a.(i) = 0 then a.(!k) <- f.add a.(!k) a.(i)
      else begin
        incr k;
        a.(!k) <- a.(i)
      end
    done;
    f.run <- merge_runs f.cmp f.add f.run (Array.sub a 0 (!k + 1));
    f.n <- 0
  end

(* Arrays past 256 words are allocated in the major heap, and
   [Array.make] with a young record then forces a minor collection
   first, promoting everything the minor heap holds; the buffer grows
   and the merge allocates by [Array.append], which does not. *)
let push f x =
  if f.n = Array.length f.buf then
    if f.n >= fold_chunk then flush f
    else f.buf <- (if f.n = 0 then Array.make 16 x else Array.append f.buf f.buf);
  f.buf.(f.n) <- x;
  f.n <- f.n + 1

let contents f =
  flush f;
  f.run

(* The sort-and-fold every accumulation runs: [feed]'s records summed by
   key with [sat_add], as arrays sorted in the one record order. *)
let fold_records feed =
  let b = folder compare_branch add_branch
  and r = folder compare_range add_range
  and s = folder compare_sample add_sample in
  feed ~branch:(push b) ~range:(push r) ~sample:(push s);
  (contents b, contents r, contents s)

(* The one record accumulator: [fold_records], materialized as [t]'s
   record lists.  Two feeds holding the same multiset of events produce
   the same value — and therefore the same bytes — which is what makes
   merged output independent of shard order. *)
let accumulate feed t =
  let branches, ranges, samples = fold_records feed in
  let total =
    Array.fold_left (fun a (b : branch) -> sat_add a b.br_count) 0L branches
    |> fun acc -> Array.fold_left (fun a (s : sample) -> sat_add a s.sm_count) acc samples
  in
  {
    t with
    branches = Array.to_list branches;
    ranges = Array.to_list ranges;
    samples = Array.to_list samples;
    total_samples = total;
    fingerprints = List.sort_uniq compare t.fingerprints;
  }

(* Sort records and aggregate duplicates (same endpoints -> counts
   saturating-added). *)
let normalize t = accumulate (iter_records t) t

(* ---- text format ---- *)

module Buf = Bolt_obj.Buf

(* Emission goes through the iocore arena writer with hand-rolled
   decimal/hex emitters; a fleet-sized dump is dominated by B/F/S lines
   and must not pay Printf per record. *)
let to_string t =
  let b = Buf.writer () in
  Buf.add_string b (if t.lbr then "mode lbr\n" else "mode sample\n");
  (match t.header with
  | Some h ->
      if h.hd_host <> "" then Buf.add_string b (Printf.sprintf "H host %s\n" h.hd_host);
      if h.hd_build_id <> "" then
        Buf.add_string b (Printf.sprintf "H build-id %s\n" h.hd_build_id);
      if h.hd_timestamp <> 0 then
        Buf.add_string b (Printf.sprintf "H timestamp %d\n" h.hd_timestamp);
      if h.hd_events <> 0L then
        Buf.add_string b (Printf.sprintf "H events %Ld\n" h.hd_events);
      if h.hd_weight <> 1.0 then
        Buf.add_string b (Printf.sprintf "H weight %h\n" h.hd_weight)
  | None -> ());
  List.iter
    (fun (f : Bolt_obj.Fingerprint.func) ->
      Buf.add_string b "G ";
      Buf.add_string b f.fp_func;
      Buf.add_char b ' ';
      Buf.dec b f.fp_size;
      Buf.add_char b ' ';
      Buf.hex b f.fp_opcode_hash;
      Buf.add_char b ' ';
      Buf.hex b f.fp_cfg_hash;
      Buf.add_char b ' ';
      Buf.add_string b
        (if f.fp_calls = [] then "-" else String.concat "," f.fp_calls);
      Buf.add_char b '\n';
      List.iter
        (fun (blk : Bolt_obj.Fingerprint.block) ->
          Buf.add_string b "GB ";
          Buf.add_string b f.fp_func;
          Buf.add_char b ' ';
          Buf.dec b blk.bk_off;
          Buf.add_char b ' ';
          Buf.dec b blk.bk_size;
          Buf.add_char b ' ';
          Buf.hex b blk.bk_opcode_hash;
          Buf.add_char b ' ';
          Buf.hex b blk.bk_shape_hash;
          Buf.add_char b '\n')
        f.fp_blocks)
    t.fingerprints;
  List.iter
    (fun x ->
      Buf.add_string b "B ";
      Buf.add_string b x.br_from_func;
      Buf.add_char b ' ';
      Buf.dec b x.br_from_off;
      Buf.add_char b ' ';
      Buf.add_string b x.br_to_func;
      Buf.add_char b ' ';
      Buf.dec b x.br_to_off;
      Buf.add_char b ' ';
      Buf.dec64 b x.br_count;
      Buf.add_char b ' ';
      Buf.dec64 b x.br_mispreds;
      Buf.add_char b '\n')
    t.branches;
  List.iter
    (fun r ->
      Buf.add_string b "F ";
      Buf.add_string b r.rg_func;
      Buf.add_char b ' ';
      Buf.dec b r.rg_start;
      Buf.add_char b ' ';
      Buf.dec b r.rg_end;
      Buf.add_char b ' ';
      Buf.dec64 b r.rg_count;
      Buf.add_char b '\n')
    t.ranges;
  List.iter
    (fun s ->
      Buf.add_string b "S ";
      Buf.add_string b s.sm_func;
      Buf.add_char b ' ';
      Buf.dec b s.sm_off;
      Buf.add_char b ' ';
      Buf.dec64 b s.sm_count;
      Buf.add_char b '\n')
    t.samples;
  Buf.contents b

let save path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

exception Bad_format of string

type warning = { w_line : int; w_text : string; w_reason : string }

let pp_warning ppf w =
  (* the "+K more skipped" summary carries no line of its own *)
  if w.w_line = 0 && w.w_text = "" then Fmt.pf ppf "fdata: %s" w.w_reason
  else Fmt.pf ppf "fdata line %d: %s (%S)" w.w_line w.w_reason w.w_text

(* Malformed lines raise [Reject] internally; [parse] turns that into a
   warning (lenient) or [Bad_format] (strict). *)
exception Reject of string

let non_negative what v =
  if v < 0 then raise (Reject (Printf.sprintf "%s is negative: %d" what v));
  v

(* ---- the allocation-free lexer ----

   One pass over the text by index: lines found with [index_from] (no
   [split_on_char] list), fields recorded as (start, stop) pairs into two
   reused arrays, integers parsed in place.  Strings materialize only for
   the fields a surviving record actually keeps.  The in-place numeric
   parsers take a fast path over plain ASCII decimal/hex and fall back to
   the stdlib parsers on a substring for anything unusual (signs other
   than a leading '-', 0x/0o prefixes, '_' separators, overflow), so
   every field accepts and rejects exactly what [int_of_string_opt],
   [Int64.of_string_opt] and [Fingerprint.of_hex] do. *)

let int_at text s e =
  let len = e - s in
  if len = 0 || len > 18 then int_of_string_opt (String.sub text s len)
  else begin
    let s' = if String.unsafe_get text s = '-' then s + 1 else s in
    let v = ref 0 in
    let ok = ref (s' < e) in
    (try
       for i = s' to e - 1 do
         let d = Char.code (String.unsafe_get text i) - 48 in
         if d < 0 || d > 9 then raise_notrace Exit;
         v := (!v * 10) + d
       done
     with Exit -> ok := false);
    if !ok then Some (if s' > s then - !v else !v)
    else int_of_string_opt (String.sub text s len)
  end

(* <= 18 plain digits always fits the native int, so the int fast path
   covers everything except genuinely 19-digit-or-odd spellings. *)
let int64_at text s e : int64 option =
  match int_at text s e with
  | Some v -> Some (Int64.of_int v)
  | None -> Int64.of_string_opt (String.sub text s (e - s))

let hex_at text s e =
  let len = e - s in
  if len = 0 || len > 15 then Bolt_obj.Fingerprint.of_hex (String.sub text s len)
  else begin
    let v = ref 0 in
    let ok = ref true in
    (try
       for i = s to e - 1 do
         let c = Char.code (String.unsafe_get text i) in
         let d =
           if c >= 48 && c <= 57 then c - 48
           else if c >= 97 && c <= 102 then c - 87
           else if c >= 65 && c <= 70 then c - 55
           else raise_notrace Exit
         in
         v := (!v lsl 4) lor d
       done
     with Exit -> ok := false);
    if !ok then Some !v else Bolt_obj.Fingerprint.of_hex (String.sub text s len)
  end

(* A corrupt million-line shard must not flood stderr (or heap) with a
   warning per line: lenient parsing keeps the first [max_warnings] and
   folds the rest into one "+K more" summary. *)
let default_max_warnings = 100

let scan ?(strict = false) ?(max_warnings = default_max_warnings)
    ?(branch = fun (_ : branch) -> ()) ?(range = fun (_ : range) -> ())
    ?(sample = fun (_ : sample) -> ()) ?newlines text : t * warning list =
  let lbr = ref true in
  let header = ref None in
  let fp_order : string list ref = ref [] in
  let fp_tbl :
      (string, Bolt_obj.Fingerprint.func * Bolt_obj.Fingerprint.block list ref)
      Hashtbl.t =
    Hashtbl.create 16
  in
  let total = ref 0L in
  let warnings = ref [] in
  let n_warn = ref 0 in
  let overflow = ref 0 in
  let reject lineno ls le reason =
    if strict then
      raise
        (Bad_format
           (Printf.sprintf "line %d: %s: %s" lineno reason
              (String.sub text ls (le - ls))));
    if !n_warn < max_warnings then begin
      incr n_warn;
      warnings :=
        { w_line = lineno; w_text = String.sub text ls (le - ls); w_reason = reason }
        :: !warnings
    end
    else incr overflow
  in
  let set_header f = header := Some (f (Option.value ~default:no_header !header)) in
  (* field boundaries of the current line, reused across lines; no record
     needs more than 7 fields, so scanning stops once that is exceeded *)
  let max_fields = 8 in
  let fs = Array.make max_fields 0 and fe = Array.make max_fields 0 in
  let sub i = String.sub text fs.(i) (fe.(i) - fs.(i)) in
  (* GB records nearly always follow their G record directly (that is how
     every emitter writes them), so the last G's name and block list are
     cached and the common case is one span compare — no substring, no
     table lookup. *)
  let last_g : (string * Bolt_obj.Fingerprint.block list ref) option ref =
    ref None
  in
  let fld_is i lit =
    let s = fs.(i) and e = fe.(i) in
    e - s = String.length lit
    &&
    let ok = ref true in
    for k = 0 to e - s - 1 do
      if String.unsafe_get text (s + k) <> String.unsafe_get lit k then ok := false
    done;
    !ok
  in
  let int_field what i =
    match int_at text fs.(i) fe.(i) with
    | Some v -> v
    | None -> raise (Reject (Printf.sprintf "%s is not an integer: %s" what (sub i)))
  in
  let count_field what i =
    match int64_at text fs.(i) fe.(i) with
    | Some v when v >= 0L -> v
    | Some v -> raise (Reject (Printf.sprintf "%s is negative: %Ld" what v))
    | None -> raise (Reject (Printf.sprintf "%s is not an integer: %s" what (sub i)))
  in
  let hash_field what i =
    match hex_at text fs.(i) fe.(i) with
    | Some v -> v
    | None -> raise (Reject (Printf.sprintf "%s is not a hex hash: %s" what (sub i)))
  in
  let len = String.length text in
  let pos = ref 0 in
  let lineno = ref 0 in
  let running = ref true in
  while !running do
    incr lineno;
    let nl = try String.index_from text !pos '\n' with Not_found -> -1 in
    let ls = !pos in
    let le0 = if nl >= 0 then nl else len in
    (* tolerate CRLF profiles copied across systems *)
    let le = if le0 > ls && String.unsafe_get text (le0 - 1) = '\r' then le0 - 1 else le0 in
    (if le > ls then begin
       (* one pass over the line's characters: field boundaries land in
          [fs]/[fe] without a search call (or its option) per field.
          Scanning stops once [max_fields] spans are recorded — the
          dispatch below only needs to know the count is wrong. *)
       let nf = ref 0 in
       let fpos = ref ls in
       (try
          for i = ls to le - 1 do
            if String.unsafe_get text i = ' ' then begin
              fs.(!nf) <- !fpos;
              fe.(!nf) <- i;
              incr nf;
              fpos := i + 1;
              if !nf >= max_fields then raise_notrace Exit
            end
          done;
          fs.(!nf) <- !fpos;
          fe.(!nf) <- le;
          incr nf
        with Exit -> ());
       let nf = !nf in
       try
         let t0 = fe.(0) - fs.(0) in
         match if t0 > 0 then String.unsafe_get text fs.(0) else '\x00' with
         | 'B' when t0 = 1 ->
             if nf <> 7 then raise (Reject "wrong field count");
             let b =
               {
                 br_from_func = sub 1;
                 br_from_off = non_negative "from offset" (int_field "from offset" 2);
                 br_to_func = sub 3;
                 br_to_off = non_negative "to offset" (int_field "to offset" 4);
                 br_count = count_field "count" 5;
                 br_mispreds = count_field "mispredicts" 6;
               }
             in
             total := sat_add !total b.br_count;
             branch b
         | 'F' when t0 = 1 ->
             if nf <> 5 then raise (Reject "wrong field count");
             let rg_start = non_negative "range start" (int_field "range start" 2) in
             let rg_end = non_negative "range end" (int_field "range end" 3) in
             if rg_end < rg_start then
               raise
                 (Reject (Printf.sprintf "range end %d before start %d" rg_end rg_start));
             range
               { rg_func = sub 1; rg_start; rg_end; rg_count = count_field "count" 4 }
         | 'S' when t0 = 1 ->
             if nf <> 4 then raise (Reject "wrong field count");
             let s =
               {
                 sm_func = sub 1;
                 sm_off = non_negative "offset" (int_field "offset" 2);
                 sm_count = count_field "count" 3;
               }
             in
             total := sat_add !total s.sm_count;
             sample s
         | 'G' when t0 = 1 ->
             if nf <> 6 then raise (Reject "wrong field count");
             let f = sub 1 in
             let fp =
               {
                 Bolt_obj.Fingerprint.fp_func = f;
                 fp_size = non_negative "size" (int_field "size" 2);
                 fp_opcode_hash = hash_field "opcode hash" 3;
                 fp_cfg_hash = hash_field "cfg hash" 4;
                 fp_calls =
                   (if fld_is 5 "-" then [] else String.split_on_char ',' (sub 5));
                 fp_blocks = [];
               }
             in
             let blocks = ref [] in
             if not (Hashtbl.mem fp_tbl f) then fp_order := f :: !fp_order;
             Hashtbl.replace fp_tbl f (fp, blocks);
             last_g := Some (f, blocks)
         | 'G' when t0 = 2 && String.unsafe_get text (fs.(0) + 1) = 'B' -> (
             if nf <> 6 then raise (Reject "wrong field count");
             (* writers emit a function's GB lines right after its G
                line, so the common case is one short string compare
                instead of a table lookup *)
             match
               (match !last_g with
               | Some (g, blocks) when fld_is 1 g -> Some blocks
               | _ -> Option.map snd (Hashtbl.find_opt fp_tbl (sub 1)))
             with
             | None -> raise (Reject "GB record before its G record")
             | Some blocks ->
                 blocks :=
                   {
                     Bolt_obj.Fingerprint.bk_off =
                       non_negative "block offset" (int_field "block offset" 2);
                     bk_size = non_negative "block size" (int_field "block size" 3);
                     bk_opcode_hash = hash_field "block opcode hash" 4;
                     bk_shape_hash = hash_field "block shape hash" 5;
                   }
                   :: !blocks)
         | 'H' when t0 = 1 ->
             if nf <> 3 then raise (Reject "wrong field count");
             if fld_is 1 "host" then set_header (fun h -> { h with hd_host = sub 2 })
             else if fld_is 1 "build-id" then
               set_header (fun h -> { h with hd_build_id = sub 2 })
             else if fld_is 1 "timestamp" then begin
               let ts = non_negative "timestamp" (int_field "timestamp" 2) in
               set_header (fun h -> { h with hd_timestamp = ts })
             end
             else if fld_is 1 "events" then begin
               let ev = count_field "events" 2 in
               set_header (fun h -> { h with hd_events = ev })
             end
             else if fld_is 1 "weight" then begin
               match float_of_string_opt (sub 2) with
               | Some w when w >= 0.0 -> set_header (fun h -> { h with hd_weight = w })
               | _ -> raise (Reject (Printf.sprintf "weight is not a number: %s" (sub 2)))
             end
             else raise (Reject (Printf.sprintf "unknown header key %s" (sub 1)))
         | 'm' when fld_is 0 "mode" ->
             if nf <> 2 then raise (Reject "wrong field count");
             if fld_is 1 "lbr" then lbr := true
             else if fld_is 1 "sample" then lbr := false
             else raise (Reject (Printf.sprintf "unknown mode %s" (sub 1)))
         | _ -> raise (Reject "unknown record tag")
       with Reject reason -> reject !lineno ls le reason
     end);
    if nl >= 0 then pos := nl + 1 else running := false
  done;
  (* every line but the last ended at a newline *)
  Option.iter (fun r -> r := !lineno - 1) newlines;
  let fingerprints =
    List.rev_map
      (fun f ->
        let fp, blocks = Hashtbl.find fp_tbl f in
        { fp with Bolt_obj.Fingerprint.fp_blocks = List.rev !blocks })
      !fp_order
  in
  let warnings = List.rev !warnings in
  let warnings =
    if !overflow > 0 then
      warnings
      @ [
          {
            w_line = 0;
            w_text = "";
            w_reason = Printf.sprintf "+%d more malformed lines skipped" !overflow;
          };
        ]
    else warnings
  in
  ( {
      lbr = !lbr;
      header = !header;
      branches = [];
      ranges = [];
      samples = [];
      total_samples = !total;
      fingerprints;
    },
    warnings )

let parse ?strict ?max_warnings text : t * warning list =
  let branches = ref [] and ranges = ref [] and samples = ref [] in
  let t, warnings =
    scan ?strict ?max_warnings
      ~branch:(fun b -> branches := b :: !branches)
      ~range:(fun r -> ranges := r :: !ranges)
      ~sample:(fun s -> samples := s :: !samples)
      text
  in
  ( {
      t with
      branches = List.rev !branches;
      ranges = List.rev !ranges;
      samples = List.rev !samples;
    },
    warnings )

let load_with_warnings ?strict ?max_warnings path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse ?strict ?max_warnings text

let load ?strict path = fst (load_with_warnings ?strict path)
