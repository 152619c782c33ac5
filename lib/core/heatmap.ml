(* Figure-9 style heat maps of the instruction address space.

   The input is the simulator's per-line fetch histogram; the output is a
   [rows] x [cols] matrix of average per-byte fetch counts on a log
   scale, plus a terminal rendering. *)

type t = {
  base : int;
  span : int;
  bucket : int; (* bytes per cell *)
  rows : int;
  cols : int;
  cells : float array; (* log10 (1 + avg fetches per byte) *)
}

let build ?(rows = 64) ?(cols = 64) ~(base : int) ~(span : int)
    (heat : (int, int) Hashtbl.t) : t =
  let bucket = max 1 ((span + (rows * cols) - 1) / (rows * cols)) in
  let cells = Array.make (rows * cols) 0.0 in
  let raw = Array.make (rows * cols) 0 in
  Hashtbl.iter
    (fun line_addr count ->
      if line_addr >= base && line_addr < base + span then begin
        let idx = (line_addr - base) / bucket in
        if idx < rows * cols then raw.(idx) <- raw.(idx) + (count * 64)
      end)
    heat;
  Array.iteri
    (fun i v -> cells.(i) <- log10 (1.0 +. (float_of_int v /. float_of_int bucket)))
    raw;
  { base; span; bucket; rows; cols; cells }

(* Fraction of total heat captured by the first [frac] of the address
   space — the "hot code packed into a small prefix" measure. *)
let heat_in_prefix t frac =
  let cutoff = int_of_float (frac *. float_of_int (t.rows * t.cols)) in
  let total = Array.fold_left ( +. ) 0.0 t.cells in
  if total = 0.0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to cutoff - 1 do
      acc := !acc +. t.cells.(i)
    done;
    !acc /. total
  end

(* Address of the highest-index cell with any heat: the extent of code
   that is actually touched.  0 when nothing was fetched at all — an
   empty histogram must not report one phantom bucket of heat. *)
let hot_extent t =
  let last = ref (-1) in
  Array.iteri (fun i v -> if v > 0.0 then last := i) t.cells;
  if !last < 0 then 0 else (!last + 1) * t.bucket

let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let render ppf t =
  let max_v = Array.fold_left max 0.0 t.cells in
  let scale v =
    if max_v = 0.0 then 0
    else min (Array.length glyphs - 1) (int_of_float (v /. max_v *. 9.0))
  in
  Fmt.pf ppf "heat map: base=%#x span=%d bucket=%d bytes/cell@." t.base t.span t.bucket;
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cols - 1 do
      Fmt.pf ppf "%c" glyphs.(scale t.cells.((r * t.cols) + c))
    done;
    Fmt.pf ppf "@."
  done

(* Scalar summary of a heat map for the run manifest: geometry, how far
   heat extends, how much of it lands in the first 1/16 of the span
   (Figure 9's packing measure), and the cell population. *)
let summary_json t : Bolt_obs.Json.t =
  let hot_cells = Array.fold_left (fun a v -> if v > 0.0 then a + 1 else a) 0 t.cells in
  let max_cell = Array.fold_left max 0.0 t.cells in
  Bolt_obs.Json.Obj
    [
      ("base", Bolt_obs.Json.Int t.base);
      ("span", Bolt_obs.Json.Int t.span);
      ("bucket", Bolt_obs.Json.Int t.bucket);
      ("rows", Bolt_obs.Json.Int t.rows);
      ("cols", Bolt_obs.Json.Int t.cols);
      ("hot_extent", Bolt_obs.Json.Int (hot_extent t));
      ("heat_in_prefix_16th", Bolt_obs.Json.Float (heat_in_prefix t (1.0 /. 16.0)));
      ("hot_cells", Bolt_obs.Json.Int hot_cells);
      ("max_cell_log10", Bolt_obs.Json.Float max_cell);
    ]
