(* -report-bad-layout (§6.3, Figure 10): find frequently-executed
   functions whose ORIGINAL layout interleaves never-executed blocks
   between hot ones — the signature of compile-time FDO having aggregated
   inlined-profile data. *)

open Bfunc

type finding = {
  bl_func : string;
  bl_block : string;
  bl_offset : int;
  bl_prev_count : int;
  bl_next_count : int;
  bl_loc : (string * int) option; (* source origin of the cold block *)
}

(* Must run before reorder-bbs (on the original layout). *)
let bad_layout ctx ~(top : int) : finding list =
  let findings = ref [] in
  List.iter
    (fun fb ->
      if has_profile fb && fb.exec_count > 0 then begin
        let arr = fb.layout in
        for i = 1 to Array.length arr - 2 do
          let prev = fb.blocks.(arr.(i - 1)) in
          let b = fb.blocks.(arr.(i)) in
          let next = fb.blocks.(arr.(i + 1)) in
          if b.ecount = 0 && prev.ecount > 0 && next.ecount > 0 && not b.is_lp then
            findings :=
              {
                bl_func = fb.fb_name;
                bl_block = b.bl;
                bl_offset = b.b_off;
                bl_prev_count = prev.ecount;
                bl_next_count = next.ecount;
                bl_loc =
                  (match b.insns with
                  | i :: _ -> i.loc
                  | [] -> None);
              }
              :: !findings
        done
      end)
    (Context.simple_funcs ctx);
  let sorted =
    List.sort
      (fun a b ->
        compare (b.bl_prev_count + b.bl_next_count) (a.bl_prev_count + a.bl_next_count))
      !findings
  in
  List.filteri (fun i _ -> i < top) sorted

let pp_finding ppf f =
  Fmt.pf ppf "%s: cold block %s (offset %#x) between hot blocks (%d / %d)%s@."
    f.bl_func f.bl_block f.bl_offset f.bl_prev_count f.bl_next_count
    (match f.bl_loc with
    | Some (file, line) -> Printf.sprintf " # from %s:%d" file line
    | None -> "")
