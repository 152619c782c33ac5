(* ISA encode/decode properties and unit checks. *)

open Bolt_isa

let reg_gen = QCheck.Gen.map Reg.of_int (QCheck.Gen.int_range 0 15)
let cond_gen = QCheck.Gen.map Cond.of_int (QCheck.Gen.int_range 0 5)

let alu_gen =
  QCheck.Gen.oneofl
    [
      Insn.Add; Insn.Sub; Insn.Mul; Insn.Div; Insn.Mod; Insn.And; Insn.Or; Insn.Xor;
      Insn.Shl; Insn.Shr; Insn.Cmp; Insn.Test;
    ]

let imm32_gen = QCheck.Gen.int_range (-0x4000_0000) 0x4000_0000
let imm8_gen = QCheck.Gen.int_range (-128) 127
let addr_gen = QCheck.Gen.int_range 0 0x7fff_ffff

(* Generator over all encodable instructions with resolved operands. *)
let insn_gen : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      return Insn.Halt;
      map (fun n -> Insn.Nop n) (int_range 1 15);
      return Insn.Ret;
      return Insn.Repz_ret;
      map (fun r -> Insn.Push r) reg_gen;
      map (fun r -> Insn.Pop r) reg_gen;
      map2 (fun a b -> Insn.Mov_rr (a, b)) reg_gen reg_gen;
      map2 (fun r v -> Insn.Mov_ri (r, Insn.Imm v, Insn.I32)) reg_gen imm32_gen;
      map2 (fun r v -> Insn.Mov_ri (r, Insn.Imm v, Insn.I64)) reg_gen (int_range min_int max_int);
      map3 (fun d b o -> Insn.Load (d, b, o)) reg_gen reg_gen imm32_gen;
      map3 (fun b o s -> Insn.Store (b, o, s)) reg_gen imm32_gen reg_gen;
      map2 (fun r a -> Insn.Load_abs (r, Insn.Imm a)) reg_gen addr_gen;
      map2 (fun a r -> Insn.Store_abs (Insn.Imm a, r)) addr_gen reg_gen;
      map2 (fun r a -> Insn.Lea (r, Insn.Imm a)) reg_gen addr_gen;
      map2 (fun r a -> Insn.Lea_rel (r, Insn.Imm a)) reg_gen imm32_gen;
      map3 (fun op a b -> Insn.Alu_rr (op, a, b)) alu_gen reg_gen reg_gen;
      map3 (fun op r v -> Insn.Alu_ri (op, r, Insn.Imm v)) alu_gen reg_gen imm32_gen;
      map2 (fun c r -> Insn.Setcc (c, r)) cond_gen reg_gen;
      map (fun v -> Insn.Jmp (Insn.Imm v, Insn.W8)) imm8_gen;
      map (fun v -> Insn.Jmp (Insn.Imm v, Insn.W32)) imm32_gen;
      map2 (fun c v -> Insn.Jcc (c, Insn.Imm v, Insn.W8)) cond_gen imm8_gen;
      map2 (fun c v -> Insn.Jcc (c, Insn.Imm v, Insn.W32)) cond_gen imm32_gen;
      map (fun v -> Insn.Call (Insn.Imm v)) imm32_gen;
      map (fun r -> Insn.Call_ind r) reg_gen;
      map (fun a -> Insn.Call_mem (Insn.Imm a)) addr_gen;
      map (fun r -> Insn.Jmp_ind r) reg_gen;
      map (fun a -> Insn.Jmp_mem (Insn.Imm a)) addr_gen;
      map (fun r -> Insn.In_ r) reg_gen;
      map (fun r -> Insn.Out r) reg_gen;
      return Insn.Throw;
    ]

let arb_insn = QCheck.make ~print:Insn.to_string insn_gen

let roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip preserves insn and size" ~count:2000
    arb_insn (fun i ->
      let b = Codec.encode i in
      let i', sz = Codec.decode b 0 in
      Insn.equal i i' && sz = Insn.size i && sz = Bytes.length b)

let sizes_match_encoding =
  QCheck.Test.make ~name:"declared size equals encoded size" ~count:2000 arb_insn
    (fun i -> Bytes.length (Codec.encode i) = Insn.size i)

let branch_widths () =
  Alcotest.(check int) "jcc short" 2 (Insn.size (Insn.Jcc (Cond.Eq, Insn.Imm 5, Insn.W8)));
  Alcotest.(check int) "jcc long" 6 (Insn.size (Insn.Jcc (Cond.Eq, Insn.Imm 5, Insn.W32)));
  Alcotest.(check int) "jmp short" 2 (Insn.size (Insn.Jmp (Insn.Imm 5, Insn.W8)));
  Alcotest.(check int) "jmp long" 5 (Insn.size (Insn.Jmp (Insn.Imm 5, Insn.W32)));
  Alcotest.(check int) "repz ret" 2 (Insn.size Insn.Repz_ret);
  Alcotest.(check int) "ret" 1 (Insn.size Insn.Ret)

let rel8_overflow () =
  Alcotest.check_raises "rel8 overflow raises"
    (Codec.Encoding_overflow "i8")
    (fun () -> ignore (Codec.encode (Insn.Jmp (Insn.Imm 1000, Insn.W8))))

let unresolved_sym () =
  match Codec.encode (Insn.Call (Insn.Sym ("f", 0))) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let decode_error () =
  let b = Bytes.make 4 '\xff' in
  match Codec.decode b 0 with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Codec.Decode_error 0 -> ()

(* [Codec.length] returns what [decode] sizes and raises what [decode]
   raises, on random bytes around valid encodings, cut short at random
   and read at every position up to one past the end. *)
let length_parity =
  let open QCheck.Gen in
  let opcode =
    oneofl
      [ 0x01; 0x02; 0x03; 0x04; 0x05; 0x06; 0x08; 0x09; 0x0A; 0x0F; 0x10; 0x1B; 0x1C; 0x20; 0x2B;
        0x2C; 0x30; 0x31; 0x40; 0x45; 0x46; 0x48; 0x4D; 0x4E; 0x50; 0x52; 0x54; 0x55; 0x56;
        0x57; 0x60; 0x62; 0x63; 0xff ]
  in
  let bytes =
    oneof
      [
        map (fun i -> Bytes.to_string (Codec.encode i)) insn_gen;
        map (fun l -> String.concat "" (List.map (fun c -> String.make 1 (Char.chr c)) l))
          (list_size (int_range 0 12) (oneof [ opcode; int_range 0 255 ]));
      ]
  in
  let gen =
    pair bytes bytes >>= fun (a, b) ->
    let s = a ^ b in
    int_range 0 (String.length s) >>= fun cut ->
    let s = String.sub s 0 cut in
    int_range 0 (String.length s) >|= fun pos -> (s, pos)
  in
  let result f = match f () with n -> Ok n | exception e -> Error e in
  QCheck.Test.make ~name:"length == size of decode, exceptions included" ~count:5000
    (QCheck.make ~print:(fun (s, pos) -> Printf.sprintf "%S at %d" s pos) gen)
    (fun (s, pos) ->
      let b = Bytes.of_string s in
      result (fun () -> Codec.length b pos) = result (fun () -> snd (Codec.decode b pos)))

let cond_invert_involutive =
  QCheck.Test.make ~name:"cond invert is involutive" ~count:100
    (QCheck.make cond_gen) (fun c -> Cond.invert (Cond.invert c) = c)

let cond_invert_negates =
  QCheck.Test.make ~name:"inverted cond negates on all orderings" ~count:100
    (QCheck.make QCheck.Gen.(pair cond_gen (int_range (-2) 2)))
    (fun (c, ord) -> Cond.holds c ord = not (Cond.holds (Cond.invert c) ord))

let operand_kind_consistent =
  QCheck.Test.make ~name:"operand field lies within the encoding" ~count:2000 arb_insn
    (fun i ->
      match Codec.operand_kind i with
      | Codec.Op_none -> true
      | Codec.Op_abs (off, w) | Codec.Op_rel (off, w) ->
          off > 0 && off + w <= Insn.size i)

let suite =
  [
    Alcotest.test_case "branch-widths" `Quick branch_widths;
    Alcotest.test_case "rel8-overflow" `Quick rel8_overflow;
    Alcotest.test_case "unresolved-sym" `Quick unresolved_sym;
    Alcotest.test_case "decode-error" `Quick decode_error;
    QCheck_alcotest.to_alcotest roundtrip;
    QCheck_alcotest.to_alcotest sizes_match_encoding;
    QCheck_alcotest.to_alcotest cond_invert_involutive;
    QCheck_alcotest.to_alcotest cond_invert_negates;
    QCheck_alcotest.to_alcotest operand_kind_consistent;
    QCheck_alcotest.to_alcotest length_parity;
  ]
