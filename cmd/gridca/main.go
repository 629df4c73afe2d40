// Command gridca manages the Grid trust domain: it creates a certificate
// authority and issues user and service credentials, the offline half of
// the GSI security infrastructure every GDMP deployment needs.
//
// Usage:
//
//	gridca init  -dir certs -org DataGrid [-validity 8760h]
//	gridca issue -dir certs -cn "gdmp/cern.ch" -out certs/cern.pem [-validity 720h]
//	gridca proxy -cred certs/cern.pem -out certs/cern-proxy.pem [-validity 12h]
//	gridca show  -cred certs/cern.pem
//
// init writes ca.pem (the public trust anchor, distribute it everywhere)
// and ca-key.pem (keep it offline). issue mints a long-lived identity;
// proxy derives a short-lived single-sign-on credential from one.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gdmp/internal/gsi"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "init":
		err = cmdInit(os.Args[2:])
	case "issue":
		err = cmdIssue(os.Args[2:])
	case "proxy":
		err = cmdProxy(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridca:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gridca {init|issue|proxy|show} [flags]")
	os.Exit(2)
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	dir := fs.String("dir", "certs", "directory for CA files")
	org := fs.String("org", "DataGrid", "organization (trust domain) name")
	validity := fs.Duration("validity", 5*365*24*time.Hour, "CA certificate lifetime")
	fs.Parse(args)

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	ca, err := gsi.NewCA(*org, *validity)
	if err != nil {
		return err
	}
	if err := gsi.SaveCertificate(ca.Certificate(), filepath.Join(*dir, "ca.pem")); err != nil {
		return err
	}
	if err := gsi.SaveCredential(ca.Credential(), filepath.Join(*dir, "ca-key.pem")); err != nil {
		return err
	}
	fmt.Printf("created CA %s\n  trust anchor: %s\n  private key:  %s\n",
		ca.Certificate().Subject, filepath.Join(*dir, "ca.pem"), filepath.Join(*dir, "ca-key.pem"))
	return nil
}

func cmdIssue(args []string) error {
	fs := flag.NewFlagSet("issue", flag.ExitOnError)
	dir := fs.String("dir", "certs", "directory holding ca-key.pem")
	cn := fs.String("cn", "", "common name of the new identity (required)")
	out := fs.String("out", "", "output credential file (required)")
	validity := fs.Duration("validity", 30*24*time.Hour, "credential lifetime")
	fs.Parse(args)
	if *cn == "" || *out == "" {
		return fmt.Errorf("issue requires -cn and -out")
	}
	caCred, err := gsi.LoadCredential(filepath.Join(*dir, "ca-key.pem"))
	if err != nil {
		return fmt.Errorf("load CA: %w", err)
	}
	ca, err := gsi.NewCAFromCredential(caCred)
	if err != nil {
		return err
	}
	cred, err := ca.Issue(*cn, *validity)
	if err != nil {
		return err
	}
	if err := gsi.SaveCredential(cred, *out); err != nil {
		return err
	}
	fmt.Printf("issued %s -> %s (valid until %s)\n",
		cred.Identity(), *out, cred.Cert.NotAfter.Format(time.RFC3339))
	return nil
}

func cmdProxy(args []string) error {
	fs := flag.NewFlagSet("proxy", flag.ExitOnError)
	credPath := fs.String("cred", "", "credential to delegate from (required)")
	out := fs.String("out", "", "output proxy file (required)")
	validity := fs.Duration("validity", 12*time.Hour, "proxy lifetime")
	fs.Parse(args)
	if *credPath == "" || *out == "" {
		return fmt.Errorf("proxy requires -cred and -out")
	}
	cred, err := gsi.LoadCredential(*credPath)
	if err != nil {
		return err
	}
	proxy, err := cred.Delegate(*validity)
	if err != nil {
		return err
	}
	if err := gsi.SaveCredential(proxy, *out); err != nil {
		return err
	}
	fmt.Printf("delegated %s -> %s (valid until %s)\n",
		proxy.Identity(), *out, proxy.Cert.NotAfter.Format(time.RFC3339))
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	credPath := fs.String("cred", "", "credential file to inspect (required)")
	fs.Parse(args)
	if *credPath == "" {
		return fmt.Errorf("show requires -cred")
	}
	cred, err := gsi.LoadCredential(*credPath)
	if err != nil {
		return err
	}
	for i, cert := range cred.FullChain() {
		role := "identity"
		if cert.IsCA {
			role = "CA root"
		} else if cert.IsProxy {
			role = "proxy"
		}
		fmt.Printf("%d: %-8s %s (issuer %s, serial %d, expires %s)\n",
			i, role, cert.Subject, cert.Issuer, cert.SerialNumber,
			cert.NotAfter.Format(time.RFC3339))
	}
	return nil
}
